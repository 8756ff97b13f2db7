package api

import "encoding/json"

// Reading is one raw RFID reading on the wire.
type Reading struct {
	Time int    `json:"time"`
	Tag  string `json:"tag"`
}

// LocationReport is one raw reader-location report on the wire.
type LocationReport struct {
	Time   int     `json:"time"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Z      float64 `json:"z"`
	Phi    float64 `json:"phi,omitempty"`
	HasPhi bool    `json:"has_phi,omitempty"`
}

// IngestRequest is the POST .../ingest body: one batch of raw records.
type IngestRequest struct {
	Readings  []Reading        `json:"readings,omitempty"`
	Locations []LocationReport `json:"locations,omitempty"`
}

// IngestResponse acknowledges an accepted batch. On a durable session a 202
// is a durability receipt: the batch reached the write-ahead log (under the
// "always" fsync policy) before the response was sent.
type IngestResponse struct {
	Queued     bool `json:"queued"`
	Durable    bool `json:"durable"`
	Readings   int  `json:"readings"`
	Locations  int  `json:"locations"`
	QueueDepth int  `json:"queue_depth"`
}

// FlushResponse reports what a synchronous flush processed. A 200 means every
// batch ingested before the flush has been fully processed — the
// deterministic synchronization point batch clients use.
type FlushResponse struct {
	Events  int `json:"events"`
	Results int `json:"results"`
}

// TagSnapshot is the current belief about one tag: the posterior-mean
// location and its per-axis variance.
type TagSnapshot struct {
	Tag          string  `json:"tag"`
	Found        bool    `json:"found"`
	X            float64 `json:"x"`
	Y            float64 `json:"y"`
	Z            float64 `json:"z"`
	VarX         float64 `json:"var_x"`
	VarY         float64 `json:"var_y"`
	VarZ         float64 `json:"var_z"`
	NumParticles int     `json:"num_particles"`
	Compressed   bool    `json:"compressed"`
}

// SnapshotOverview is the GET .../snapshot body: reader pose estimate,
// progress counters and the tracked tag ids.
type SnapshotOverview struct {
	Reader         Pose     `json:"reader"`
	Epochs         int      `json:"epochs"`
	NextEpoch      int      `json:"next_epoch"`
	Watermark      int      `json:"watermark"`
	BufferedEpochs int      `json:"buffered_epochs"`
	Particles      int      `json:"particles"`
	Tracked        []string `json:"tracked"`
}

// HistorySnapshot is the GET .../snapshot?epoch=N body: every object's MAP
// location as it was when that epoch was sealed.
type HistorySnapshot struct {
	Epoch   int           `json:"epoch"`
	Objects []TagSnapshot `json:"objects"`
}

// Query kinds registrable through QuerySpec.Kind.
const (
	QueryLocationUpdates   = "location-updates"
	QueryFireCode          = "fire-code"
	QueryWindowedAggregate = "windowed-aggregate"
)

// Query evaluation modes for QuerySpec.Mode.
const (
	// ModeContinuous (the default, also spelled "") evaluates incrementally
	// over the live clean event stream.
	ModeContinuous = "continuous"
	// ModeHistory evaluates once, at registration, over the retained epoch
	// history; the query is finished immediately and its rows are polled like
	// any other query's.
	ModeHistory = "history"
)

// QuerySpec declaratively describes a continuous query; the POST .../queries
// body is exactly this shape. Only the fields of the selected Kind are
// consulted.
type QuerySpec struct {
	Kind string `json:"kind"`

	// Mode selects live-stream ("continuous", the default) or time-travel
	// ("history") evaluation.
	Mode string `json:"mode,omitempty"`
	// FromEpoch and ToEpoch bound a history-mode query's epoch range; ToEpoch
	// 0 means "through the newest sealed epoch".
	FromEpoch int `json:"from_epoch,omitempty"`
	ToEpoch   int `json:"to_epoch,omitempty"`

	// MinChange (location-updates): suppress updates that moved at most this
	// many feet.
	MinChange float64 `json:"min_change,omitempty"`

	// WindowEpochs (fire-code, windowed-aggregate): range window length in
	// epochs (default 5).
	WindowEpochs int `json:"window_epochs,omitempty"`
	// ThresholdPounds (fire-code): the Having threshold (default 200).
	ThresholdPounds float64 `json:"threshold_pounds,omitempty"`
	// WeightPounds (fire-code, windowed-aggregate): uniform per-object
	// weight in pounds (default 1).
	WeightPounds float64 `json:"weight_pounds,omitempty"`

	// Op (windowed-aggregate): count, sum-weight or mean-weight (default
	// count).
	Op string `json:"op,omitempty"`
	// GroupBy (windowed-aggregate): none or area (default none).
	GroupBy string `json:"group_by,omitempty"`
}

// QueryInfo describes a registered query.
type QueryInfo struct {
	ID   string    `json:"id"`
	Spec QuerySpec `json:"spec"`
	// NextSeq is the sequence number the next result will get (equivalently:
	// the number of results produced so far).
	NextSeq int `json:"next_seq"`
	// Buffered is the number of results currently held for polling.
	Buffered int `json:"buffered"`
	// Dropped is the number of old results evicted unpolled.
	Dropped int `json:"dropped"`
	// Finished reports that the query will produce no further rows.
	Finished bool `json:"finished,omitempty"`
}

// QueryList is the GET .../queries body when no pagination parameters are
// given: a bare array, the original v1 shape.
type QueryList []QueryInfo

// QueryPage is the GET .../queries body when ?limit= or ?page_token= is
// present. Queries are ordered by id ascending; NextPageToken is non-empty
// when more queries follow and passes back verbatim as the next request's
// page_token. (The unpaginated response keeps the bare-array QueryList shape
// — v1 fields are only ever added, never reshaped — so the object form is
// opt-in via the query parameters.)
type QueryPage struct {
	Queries []QueryInfo `json:"queries"`
	// NextPageToken resumes the listing after the last returned query. Empty
	// means the listing is complete.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// QueryResult is one result row. Seq numbers are per query, start at 0 and
// never repeat, so clients poll with "everything after seq N"; Row is the
// kind-specific row object (location update, violation or aggregate row).
type QueryResult struct {
	Seq int             `json:"seq"`
	Row json.RawMessage `json:"row"`
}

// ResultsPage is the GET .../queries/{id}/results body. With ?wait=DURATION
// the server long-polls: it holds the request until a result with Seq >
// after arrives, the wait elapses, or the query finishes — so clients stream
// results without hot-polling.
type ResultsPage struct {
	Query   QueryInfo     `json:"query"`
	Results []QueryResult `json:"results"`
}

// Health is the GET /v1/healthz body. It describes the server, not any one
// session: per-session durable progress is on GET /v1/sessions/{sid}/stats
// and a replica's applied epoch on the Rfid-Applied-Epoch read header.
type Health struct {
	// OK is true exactly when State is "serving".
	OK bool `json:"ok"`
	// State is the server lifecycle: "recovering" until every session
	// restored at boot finished replaying its log, then "serving" (a server
	// with no sessions is serving); "failed" (HTTP 503) when one of them
	// could not recover; "closed" after shutdown.
	State string `json:"state"`
	// Durable reports whether the server persists sessions (-data-dir).
	Durable       bool    `json:"durable"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Sessions is the number of live sessions.
	Sessions int `json:"sessions"`
	// Role is the node's replication role: primary | replica | promoting
	// (empty on servers predating replication, meaning primary).
	Role string `json:"role,omitempty"`
	// ReplicationLagSeconds is a replica's staleness estimate: seconds
	// between the primary shipping the newest applied record (or heartbeat)
	// and the replica applying it. Absent on primaries.
	ReplicationLagSeconds *float64 `json:"replication_lag_seconds,omitempty"`
	// Followers is the number of replica connections a primary is currently
	// shipping to (absent on replicas).
	Followers *int `json:"followers,omitempty"`
}
