// Command rfidquery runs the continuous queries of Section II-B over a clean
// event stream produced by rfidclean: the location-update query, the
// fire-code weight-density query and the windowed aggregate query. Queries
// are declared as query-registry specs — exactly the registration path the
// serving layer (rfidserve) uses — and evaluated incrementally over the
// stream.
//
// With -server the command runs against a live rfidserve process instead,
// through the typed rfid/client SDK: the query is registered on the chosen
// session's v1 API and results are streamed back with long-polling.
//
// Usage:
//
//	rfidquery -events events.csv -query location-updates
//	rfidquery -events events.csv -query fire-code -weight 25 -threshold 200 -window 5
//	rfidquery -events events.csv -query windowed-aggregate -op count -group-by area -window 5
//	rfidquery -server http://localhost:8080 -session default -query location-updates -follow
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/query"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidquery: ")

	var (
		eventsFile = flag.String("events", "events.csv", "clean event stream CSV (from rfidclean)")
		queryName  = flag.String("query", "location-updates", "query to run: location-updates, fire-code or windowed-aggregate")
		minChange  = flag.Float64("min-change", 0.1, "location-updates: minimum location change (ft) to report")
		weight     = flag.Float64("weight", 25, "fire-code / windowed-aggregate: weight in pounds assigned to each object")
		threshold  = flag.Float64("threshold", 200, "fire-code: maximum pounds per square foot")
		window     = flag.Int("window", 5, "fire-code / windowed-aggregate: window length in seconds (epochs)")
		op         = flag.String("op", "count", "windowed-aggregate: aggregate op (count, sum-weight, mean-weight)")
		groupBy    = flag.String("group-by", "none", "windowed-aggregate: grouping (none or area)")
		limit      = flag.Int("limit", 50, "maximum number of rows to print (0 = all)")

		server  = flag.String("server", "", "rfidserve base URL; when set, run the query against a live session instead of a local CSV")
		session = flag.String("session", "default", "session id to register the query on (with -server); the default names the session rfidserve -trace creates")
		wait    = flag.Duration("wait", 5*time.Second, "long-poll wait per results request (with -server)")
		follow  = flag.Bool("follow", false, "keep long-polling for new results until interrupted (with -server)")
	)
	flag.Parse()

	if *server != "" {
		spec := api.QuerySpec{
			Kind:            *queryName,
			MinChange:       *minChange,
			WindowEpochs:    *window,
			ThresholdPounds: *threshold,
			WeightPounds:    *weight,
			Op:              *op,
			GroupBy:         *groupBy,
		}
		if err := runRemote(*server, *session, spec, *wait, *follow, *limit); err != nil {
			log.Fatalf("%v", err)
		}
		return
	}

	f, err := os.Open(*eventsFile)
	if err != nil {
		log.Fatalf("open events: %v", err)
	}
	events, err := rfid.ReadEventsCSV(f)
	f.Close()
	if err != nil {
		log.Fatalf("read events: %v", err)
	}

	spec := rfid.QuerySpec{
		Kind:            rfid.QueryKind(*queryName),
		MinChange:       *minChange,
		WindowEpochs:    *window,
		ThresholdPounds: *threshold,
		WeightPounds:    *weight,
		Op:              query.AggregateOp(*op),
		GroupBy:         query.GroupKey(*groupBy),
	}
	results, err := runSpec(spec, events)
	if err != nil {
		log.Fatalf("%v", err)
	}

	fmt.Printf("%d %s rows\n", len(results), spec.Kind)
	for i, res := range results {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more)\n", len(results)-i)
			break
		}
		fmt.Println(formatRow(res.Row))
	}
}

// runRemote registers the spec on a live session through the rfid/client SDK
// and streams its results: each iteration long-polls the results endpoint, so
// rows print as soon as the server produces them. Without -follow the command
// exits after the first empty poll (the stream went quiet for one wait
// window); with -follow it streams until interrupted.
func runRemote(server, sessionID string, spec api.QuerySpec, wait time.Duration, follow bool, limit int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sess := client.New(server).Session(sessionID)
	info, err := sess.RegisterQuery(ctx, spec)
	if err != nil {
		return fmt.Errorf("register query on session %q: %w", sessionID, err)
	}
	fmt.Printf("registered %s as %s on session %s\n", spec.Kind, info.ID, sessionID)
	// This is a transient viewing query: unregister it on the way out (with a
	// fresh context — the signal context is already canceled on Ctrl-C), or
	// every invocation would permanently leak one registered query on the
	// session, WAL-logged and all on a durable server.
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sess.DeleteQuery(cctx, info.ID); err != nil {
			log.Printf("warning: failed to unregister %s: %v", info.ID, err)
		}
	}()
	it := sess.Results(info.ID, client.PollOptions{After: client.FromStart, Wait: wait})
	printed := 0
	for {
		rows, more, err := it.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted while long-polling
			}
			return fmt.Errorf("poll results: %w", err)
		}
		for _, row := range rows {
			if limit > 0 && printed >= limit {
				fmt.Println("... (row limit reached)")
				return nil
			}
			fmt.Printf("seq=%d %s\n", row.Seq, row.Row)
			printed++
		}
		if !more || (!follow && len(rows) == 0) {
			return nil
		}
	}
}

// runSpec evaluates one declarative query spec over a complete event stream
// through the query registry — the same registration and incremental
// feeding path rfidserve drives per epoch.
func runSpec(spec rfid.QuerySpec, events []rfid.Event) ([]rfid.QueryResult, error) {
	// Uncapped buffer: a batch CLI over a finite stream must print every
	// row, unlike the server's bounded polling buffers.
	reg := rfid.NewQueryRegistry(-1)
	info, err := reg.Register(spec)
	if err != nil {
		return nil, err
	}
	sorted := make([]rfid.Event, len(events))
	copy(sorted, events)
	rfid.SortEventsByTimeThenTag(sorted)
	reg.Feed(sorted)
	reg.FlushAll()
	results, _, err := reg.Results(info.ID, -1, 0)
	return results, err
}

// formatRow renders one typed result row for the terminal.
func formatRow(row any) string {
	switch r := row.(type) {
	case rfid.LocationUpdate:
		if r.HasPrev {
			return fmt.Sprintf("t=%d %s moved %v -> %v", r.Time, r.Tag, r.Prev, r.Loc)
		}
		return fmt.Sprintf("t=%d %s first seen at %v", r.Time, r.Tag, r.Loc)
	case rfid.Violation:
		return fmt.Sprintf("t=%d area %s total weight %.0f lb", r.Time, r.Area, r.TotalWeight)
	case rfid.AggregateRow:
		if r.Grouped {
			return fmt.Sprintf("t=%d area %s value %.2f (%d objects)", r.Time, r.Area, r.Value, r.Objects)
		}
		return fmt.Sprintf("t=%d value %.2f (%d objects)", r.Time, r.Value, r.Objects)
	default:
		return fmt.Sprintf("%+v", row)
	}
}
