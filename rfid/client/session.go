package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/rfid/api"
)

// Session is a client handle scoped to one session resource. It is cheap and
// safe to share; every method issues its own request.
type Session struct {
	c      *Client
	id     string
	prefix string
}

// ID returns the session id the handle is scoped to.
func (s *Session) ID() string { return s.id }

// Get describes the session.
func (s *Session) Get(ctx context.Context) (api.Session, error) {
	return s.c.GetSession(ctx, s.id)
}

// Delete closes the session and deletes its durable state.
func (s *Session) Delete(ctx context.Context) error {
	return s.c.DeleteSession(ctx, s.id)
}

// Ingest applies one batch of raw records: the call returns after the batch
// was applied. On a durable session the acknowledgement is a durability
// receipt: the batch reached the write-ahead log first.
func (s *Session) Ingest(ctx context.Context, batch api.IngestRequest) (api.IngestResponse, error) {
	var out api.IngestResponse
	err := s.c.do(ctx, http.MethodPost, s.prefix+"/ingest", batch, &out)
	return out, err
}

// Flush synchronously processes every buffered epoch; when it returns,
// everything ingested before the call has been fully processed. With windows
// true the registered queries' held-back final window is flushed too.
func (s *Session) Flush(ctx context.Context, windows bool) (api.FlushResponse, error) {
	path := s.prefix + "/flush"
	if windows {
		path += "?windows=true"
	}
	var out api.FlushResponse
	err := s.c.do(ctx, http.MethodPost, path, struct{}{}, &out)
	return out, err
}

// Snapshot reads the session overview: reader pose estimate, progress
// counters and tracked tags.
func (s *Session) Snapshot(ctx context.Context) (api.SnapshotOverview, error) {
	var out api.SnapshotOverview
	err := s.c.do(ctx, http.MethodGet, s.prefix+"/snapshot", nil, &out)
	return out, err
}

// SnapshotTag reads the current belief about one tag.
func (s *Session) SnapshotTag(ctx context.Context, tag string) (api.TagSnapshot, error) {
	var out api.TagSnapshot
	err := s.c.do(ctx, http.MethodGet, s.prefix+"/snapshot/"+url.PathEscape(tag), nil, &out)
	return out, err
}

// SnapshotAt reads the time-travel view of one retained history epoch
// (requires the session's engine.history_epochs > 0).
func (s *Session) SnapshotAt(ctx context.Context, epoch int) (api.HistorySnapshot, error) {
	var out api.HistorySnapshot
	err := s.c.do(ctx, http.MethodGet, s.prefix+"/snapshot?epoch="+strconv.Itoa(epoch), nil, &out)
	return out, err
}

// Stats reads the session's live debug view: residency state, queue depth,
// stream window, checkpoint/WAL ages and (with tracing enabled) the
// cumulative per-stage time breakdown plus the most recent sealed epochs.
// Reading stats never hydrates an evicted session.
func (s *Session) Stats(ctx context.Context) (api.SessionDebugStats, error) {
	var out api.SessionDebugStats
	err := s.c.do(ctx, http.MethodGet, s.prefix+"/stats", nil, &out)
	return out, err
}

// Trace reads the per-stage timings of up to epochs of the most recently
// sealed epochs, oldest first (epochs <= 0 returns every retained epoch).
// Requires the server's -trace-epochs > 0; a disabled or evicted session
// answers with an empty trace.
func (s *Session) Trace(ctx context.Context, epochs int) (api.TraceResponse, error) {
	path := s.prefix + "/trace"
	if epochs > 0 {
		path += "?epochs=" + strconv.Itoa(epochs)
	}
	var out api.TraceResponse
	err := s.c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// RegisterQuery registers a continuous (or history-mode) query and returns
// its assigned id and state.
func (s *Session) RegisterQuery(ctx context.Context, spec api.QuerySpec) (api.QueryInfo, error) {
	var out api.QueryInfo
	err := s.c.do(ctx, http.MethodPost, s.prefix+"/queries", spec, &out)
	return out, err
}

// Queries lists the session's registered queries.
func (s *Session) Queries(ctx context.Context) ([]api.QueryInfo, error) {
	var out api.QueryList
	if err := s.c.do(ctx, http.MethodGet, s.prefix+"/queries", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// QueriesPage lists the session's queries one page at a time: pass limit
// (0 = server maximum) and the next_page_token of the previous page ("" for
// the first). An empty NextPageToken in the result means the listing is
// complete.
func (s *Session) QueriesPage(ctx context.Context, limit int, pageToken string) (api.QueryPage, error) {
	q := url.Values{}
	q.Set("page_token", pageToken)
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var out api.QueryPage
	err := s.c.do(ctx, http.MethodGet, s.prefix+"/queries?"+q.Encode(), nil, &out)
	return out, err
}

// DeleteQuery unregisters a query.
func (s *Session) DeleteQuery(ctx context.Context, id string) error {
	return s.c.do(ctx, http.MethodDelete, s.prefix+"/queries/"+url.PathEscape(id), nil, nil)
}

// FromStart is the cursor value that reads a query's results from the very
// first row (sequence numbers start at 0, so the exclusive cursor must sit
// below them).
const FromStart = -1

// PollOptions tunes one results poll (and the Results iterator).
type PollOptions struct {
	// After is the exclusive resume cursor: only results with Seq > After are
	// returned. Pass FromStart (-1) to read from the beginning; the zero
	// value resumes after sequence 0, exactly like any other cursor value,
	// so a persisted cursor round-trips without special cases. The iterator
	// advances it automatically.
	After int
	// Limit caps the rows returned per poll (0 = server default, unlimited).
	Limit int
	// Wait long-polls: the server holds the request until a new result
	// arrives or the wait elapses (capped server-side, default cap 60s).
	// Zero returns immediately — plain polling.
	Wait time.Duration
}

// PollResults reads one page of results with Seq > opts.After. A 503 refusal
// carrying a retry_after_ms hint (transient backpressure) is retried in place
// after the hinted delay — twice at most, and never past ctx's deadline —
// before the error surfaces.
func (s *Session) PollResults(ctx context.Context, queryID string, opts PollOptions) (api.ResultsPage, error) {
	q := url.Values{}
	q.Set("after", strconv.Itoa(opts.After))
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Wait > 0 {
		q.Set("wait", opts.Wait.String())
	}
	path := s.prefix + "/queries/" + url.PathEscape(queryID) + "/results?" + q.Encode()
	var out api.ResultsPage
	for attempt := 0; ; attempt++ {
		err := s.c.do(ctx, http.MethodGet, path, nil, &out)
		apiErr, ok := err.(*api.Error)
		if !ok || apiErr.Code != api.ErrUnavailable || apiErr.RetryAfterMS <= 0 || attempt >= 2 {
			return out, err
		}
		timer := time.NewTimer(time.Duration(apiErr.RetryAfterMS) * time.Millisecond)
		select {
		case <-ctx.Done():
			timer.Stop()
			return out, err
		case <-timer.C:
		}
	}
}

// Results returns an iterator over a query's result stream, starting after
// opts.After. Pass After: FromStart to read from the first row (an explicit
// cursor resumes exactly there — including After: 0, which resumes after
// sequence 0); set Wait to long-poll.
func (s *Session) Results(queryID string, opts PollOptions) *ResultIterator {
	return &ResultIterator{s: s, queryID: queryID, after: opts.After, limit: opts.Limit, wait: opts.Wait}
}

// ResultIterator streams a query's results, tracking the sequence cursor so
// every row is observed exactly once. It is not safe for concurrent use.
type ResultIterator struct {
	s       *Session
	queryID string
	after   int
	limit   int
	wait    time.Duration
	done    bool
}

// Next fetches the next batch of rows. With a Wait configured, the underlying
// request long-polls: an empty non-final batch means the wait elapsed with no
// new rows (keep calling; cancel via ctx to stop). Once the query is finished
// and drained, Next returns (nil, false, nil) forever.
func (it *ResultIterator) Next(ctx context.Context) (rows []api.QueryResult, more bool, err error) {
	if it.done {
		return nil, false, nil
	}
	page, err := it.s.PollResults(ctx, it.queryID, PollOptions{After: it.after, Limit: it.limit, Wait: it.wait})
	if err != nil {
		return nil, true, err
	}
	if n := len(page.Results); n > 0 {
		it.after = page.Results[n-1].Seq
	}
	// A finished query never produces new rows, so an empty page past the
	// cursor means the stream has ended — either the buffer was drained, or
	// the remaining rows were already evicted by the server's cap (the
	// cursor can then never reach NextSeq-1, which is why the drained check
	// alone would loop forever).
	if page.Query.Finished && (len(page.Results) == 0 || it.after >= page.Query.NextSeq-1) {
		it.done = true
		return page.Results, len(page.Results) > 0, nil
	}
	return page.Results, true, nil
}

// Err never blocks: it validates that the iterator's query still exists.
func (it *ResultIterator) Err(ctx context.Context) error {
	_, err := it.s.PollResults(ctx, it.queryID, PollOptions{After: it.after})
	return err
}

// String implements fmt.Stringer for debugging.
func (it *ResultIterator) String() string {
	return fmt.Sprintf("results(%s/%s after=%d)", it.s.id, it.queryID, it.after)
}
