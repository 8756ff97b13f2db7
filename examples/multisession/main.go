// Multisession: run two isolated inference sessions — two sites with
// different worlds, seeds and particle budgets — inside ONE serving process,
// drive both over HTTP through the typed rfid/client SDK, and stream each
// site's continuous-query results back with long-polling.
//
// The example embeds the serving layer in-process (exactly what cmd/rfidserve
// wraps behind a listener) so it runs standalone; point client.New at a real
// rfidserve URL and everything below works unchanged.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/rfid/api"
	"repro/rfid/client"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. Start a serving process. It hosts no session until one is created;
	//    the sessions we create next are fully isolated from each other.
	srv, err := serve.New(serve.Config{})
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2. Create one session per site through the v1 API. Different worlds,
	//    different seeds — each session is its own inference universe with
	//    its own engine, queries, metrics labels and (with -data-dir on
	//    rfidserve) its own WAL/checkpoint directory.
	c := client.New(ts.URL)
	if _, err := c.CreateSession(ctx, api.CreateSessionRequest{
		ID:     "warehouse-east",
		Source: api.SourceSynthetic, // 40x40 ft open floor
		Engine: &api.EngineConfig{ObjectParticles: 300, Seed: 1},
	}); err != nil {
		log.Fatalf("create warehouse-east: %v", err)
	}
	if _, err := c.CreateSession(ctx, api.CreateSessionRequest{
		ID:        "lab-west",
		Source:    api.SourceSynthetic,
		Synthetic: &api.SyntheticWorld{FloorX: 12, FloorY: 12, FloorZ: 4},
		Engine:    &api.EngineConfig{ObjectParticles: 150, Seed: 2},
	}); err != nil {
		log.Fatalf("create lab-west: %v", err)
	}
	sessions, _ := c.Sessions(ctx)
	fmt.Printf("sessions in one process: ")
	for _, s := range sessions {
		fmt.Printf("%s ", s.ID)
	}
	fmt.Println()

	// 3. Register a location-update query on each site and start a long-poll
	//    consumer per site BEFORE any data exists: the ?wait= parameter holds
	//    each request server-side until that site produces rows, so nothing
	//    hot-polls.
	type siteRows struct {
		site string
		rows []api.QueryResult
		err  error
	}
	delivered := make(chan siteRows, 2)
	for _, site := range []string{"warehouse-east", "lab-west"} {
		sess := c.Session(site)
		info, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates, MinChange: 0.01})
		if err != nil {
			log.Fatalf("register on %s: %v", site, err)
		}
		go func(site string) {
			page, err := sess.PollResults(ctx, info.ID, client.PollOptions{After: -1, Wait: 30 * time.Second})
			delivered <- siteRows{site, page.Results, err}
		}(site)
	}

	// 4. Ingest each site's raw stream. In production these batches arrive
	//    from per-site readers; a 202 on a durable server means the batch
	//    reached that session's write-ahead log.
	for epoch := 0; epoch < 6; epoch++ {
		for i, site := range []string{"warehouse-east", "lab-west"} {
			_, err := c.Session(site).Ingest(ctx, api.IngestRequest{
				Readings: []api.Reading{
					{Time: epoch, Tag: fmt.Sprintf("%s-item-1", site)},
					{Time: epoch, Tag: fmt.Sprintf("%s-item-2", site)},
				},
				Locations: []api.LocationReport{
					{Time: epoch, X: 1 + 0.2*float64(epoch), Y: 2 + float64(i), Z: 3},
				},
			})
			if err != nil {
				log.Fatalf("ingest %s: %v", site, err)
			}
		}
	}

	// 5. The long-pollers wake as soon as their site's results exist.
	for i := 0; i < 2; i++ {
		d := <-delivered
		if d.err != nil {
			log.Fatalf("poll %s: %v", d.site, d.err)
		}
		fmt.Printf("%s streamed %d location updates via long-poll; first: %s\n",
			d.site, len(d.rows), d.rows[0].Row)
	}

	// 6. Each session's state is isolated: the same item id can live in both
	//    worlds with independent estimates.
	for _, site := range []string{"warehouse-east", "lab-west"} {
		if _, err := c.Session(site).Flush(ctx, false); err != nil {
			log.Fatalf("flush %s: %v", site, err)
		}
		snap, err := c.Session(site).SnapshotTag(ctx, site+"-item-1")
		if err != nil {
			log.Fatalf("snapshot %s: %v", site, err)
		}
		fmt.Printf("%s item-1 estimate: (%.2f, %.2f, %.2f) ft, %d particles\n",
			site, snap.X, snap.Y, snap.Z, snap.NumParticles)
	}

	// 7. Structured errors are typed end to end.
	if _, err := c.GetSession(ctx, "no-such-site"); err != nil {
		fmt.Printf("typed error for unknown session: %v\n", err)
	}
}
