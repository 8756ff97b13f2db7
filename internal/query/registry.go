package query

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// Kind names a continuous-query type the registry can instantiate.
type Kind string

// Registered query kinds.
const (
	// KindLocationUpdates is the per-object location-update query.
	KindLocationUpdates Kind = "location-updates"
	// KindFireCode is the fire-code weight-density query.
	KindFireCode Kind = "fire-code"
	// KindWindowedAggregate is the generalized windowed aggregate query.
	KindWindowedAggregate Kind = "windowed-aggregate"
)

// Mode selects how a registered query is evaluated.
const (
	// ModeContinuous (the default, also spelled "") evaluates the query
	// incrementally over the live clean event stream.
	ModeContinuous = "continuous"
	// ModeHistory evaluates the query once, at registration time, over the
	// bounded per-epoch history of sealed MAP location estimates the engine
	// retains (the time-travel read path). The query is finished immediately;
	// its rows are polled like any other query's but it is never fed again.
	ModeHistory = "history"
)

// Spec is the declarative, JSON-serializable description of a continuous
// query; the serving layer's POST /queries body is exactly this shape. Only
// the fields of the selected Kind are consulted.
type Spec struct {
	Kind Kind `json:"kind"`

	// Mode selects live-stream ("continuous", the default) or time-travel
	// ("history") evaluation.
	Mode string `json:"mode,omitempty"`
	// FromEpoch and ToEpoch bound a history-mode query's epoch range,
	// clamped to the retained history; ToEpoch == 0 means "through the newest
	// sealed epoch".
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

	// Op (windowed-aggregate): aggregation function (default "count").
	Op AggregateOp `json:"op,omitempty"`
	// GroupBy (windowed-aggregate): grouping key (default "none").
	GroupBy GroupKey `json:"group_by,omitempty"`
}

// Validate reports whether the spec describes an instantiable query.
func (s Spec) Validate() error {
	switch s.Mode {
	case "", ModeContinuous, ModeHistory:
	default:
		return fmt.Errorf("query: unknown mode %q (want %s or %s)", s.Mode, ModeContinuous, ModeHistory)
	}
	if s.Mode == ModeHistory && s.ToEpoch != 0 && s.ToEpoch < s.FromEpoch {
		return fmt.Errorf("query: history range [%d, %d] is empty", s.FromEpoch, s.ToEpoch)
	}
	switch s.Kind {
	case KindLocationUpdates, KindFireCode:
		return nil
	case KindWindowedAggregate:
		return AggregateConfig{Op: s.Op, GroupBy: s.GroupBy}.Validate()
	default:
		return fmt.Errorf("query: unknown kind %q (want %s, %s or %s)",
			s.Kind, KindLocationUpdates, KindFireCode, KindWindowedAggregate)
	}
}

// IsHistory reports whether the spec selects time-travel evaluation.
func (s Spec) IsHistory() bool { return s.Mode == ModeHistory }

// Continuous is the streaming interface the registry drives: one event in,
// zero or more result rows out, a flush for the open epoch, and the
// checkpoint of the query's state. The concrete row type depends on the query
// kind (LocationUpdate, Violation or AggregateRow); *LocationUpdateQuery,
// *FireCodeQuery and *WindowedAggregateQuery implement it.
type Continuous interface {
	// PushEvent feeds one clean event (events must arrive in time order).
	PushEvent(ev stream.Event) []any
	// FlushFinal evaluates whatever the query was holding back for the
	// still-open epoch (windowed queries emit an epoch's rows only once a
	// later epoch begins) and closes that epoch.
	FlushFinal() []any

	saveState(e *checkpoint.Encoder)
	restoreState(d *checkpoint.Decoder) error
}

// NewContinuous instantiates the streaming query a spec describes.
func NewContinuous(s Spec) (Continuous, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	weight := func(stream.TagID) float64 { return 1 }
	if s.WeightPounds > 0 {
		w := s.WeightPounds
		weight = func(stream.TagID) float64 { return w }
	}
	switch s.Kind {
	case KindLocationUpdates:
		return NewLocationUpdateQuery(s.MinChange), nil
	case KindFireCode:
		return NewFireCodeQuery(FireCodeConfig{
			WindowEpochs:    s.WindowEpochs,
			ThresholdPounds: s.ThresholdPounds,
			Weight:          weight,
		}), nil
	case KindWindowedAggregate:
		return NewWindowedAggregateQuery(AggregateConfig{
			WindowEpochs: s.WindowEpochs,
			Op:           s.Op,
			GroupBy:      s.GroupBy,
			Weight:       weight,
		}), nil
	}
	return nil, fmt.Errorf("query: unknown kind %q", s.Kind)
}

// wrapRows boxes a concrete row slice into []any.
func wrapRows[T any](rows []T) []any {
	if len(rows) == 0 {
		return nil
	}
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// Result is one buffered result row of a registered query. Seq numbers are
// per query, start at 0 and never repeat, so clients poll with
// "give me everything after seq N".
type Result struct {
	Seq int `json:"seq"`
	Row any `json:"row"`
}

// Info describes a registered query.
type Info struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// NextSeq is the sequence number the next result will get (equivalently:
	// the number of results produced so far).
	NextSeq int `json:"next_seq"`
	// Buffered is the number of results currently held for polling.
	Buffered int `json:"buffered"`
	// Dropped is the number of old results evicted because the buffer was
	// full before the client polled them.
	Dropped int `json:"dropped"`
	// Finished reports that the query will produce no further rows (history
	// queries finish at registration; continuous queries never do).
	Finished bool `json:"finished,omitempty"`
}

// registered is one live query plus its result buffer.
type registered struct {
	info Info
	q    Continuous
	// results[start:] holds the most recent rows; start advances as old rows
	// are evicted and the slice is compacted only once start exceeds the
	// cap, so eviction is amortized O(1) per row.
	results []Result
	start   int
}

// live returns the non-evicted result window.
func (reg *registered) live() []Result { return reg.results[reg.start:] }

// HistorySource supplies the bounded per-epoch history of sealed MAP
// location estimates that history-mode queries evaluate over. It is
// implemented by rfid.Runner; the serving layer wires it in with
// SetHistorySource.
type HistorySource interface {
	// HistoryBounds returns the oldest and newest retained epochs; ok is
	// false while no epoch has been recorded (or history is disabled).
	HistoryBounds() (oldest, newest int, ok bool)
	// HistoryEvents returns the per-object location events recorded at the
	// given sealed epoch, in tag order; ok is false outside the retained
	// window.
	HistoryEvents(epoch int) ([]stream.Event, bool)
}

// Registry owns the set of registered continuous queries and drives them
// incrementally: the serving layer feeds each epoch's clean events once, and
// every registered query sees them in order. Registration, feeding and
// result polling are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	nextID  int
	queries map[string]*registered
	// idPrefix prefixes assigned ids ("q" by default). A replica's local
	// history-query registry uses a distinct prefix so its ephemeral ids can
	// never collide with the replicated primary-assigned ones.
	idPrefix string
	// maxBuffered caps each query's result buffer; oldest rows are evicted
	// first.
	maxBuffered int
	// history serves ModeHistory registrations; nil rejects them.
	history HistorySource
}

// SetIDPrefix changes the prefix of newly assigned query ids (default "q").
// Call before the first Register.
func (r *Registry) SetIDPrefix(p string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idPrefix = p
}

// SetHistorySource installs the provider history-mode queries evaluate over.
func (r *Registry) SetHistorySource(src HistorySource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.history = src
}

// DefaultMaxBufferedResults is the per-query result-buffer cap used when
// NewRegistry is given a non-positive limit.
const DefaultMaxBufferedResults = 4096

// NewRegistry returns an empty registry whose queries each buffer at most
// maxBuffered undelivered results (0 selects DefaultMaxBufferedResults;
// negative disables the cap, for batch evaluation over a finite stream).
func NewRegistry(maxBuffered int) *Registry {
	if maxBuffered == 0 {
		maxBuffered = DefaultMaxBufferedResults
	}
	return &Registry{queries: make(map[string]*registered), maxBuffered: maxBuffered}
}

// Register instantiates the query a spec describes and assigns it an id. A
// continuous-mode query is fed from the next Feed call on; a history-mode
// query is evaluated right here over the retained epoch history — the same
// query operator, run over the stored past instead of the live stream — and
// registered already finished, with its rows buffered for polling.
func (r *Registry) Register(spec Spec) (Info, error) {
	q, err := NewContinuous(spec)
	if err != nil {
		return Info{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	prefix := r.idPrefix
	if prefix == "" {
		prefix = "q"
	}
	id := fmt.Sprintf("%s%d", prefix, r.nextID)
	reg := &registered{info: Info{ID: id, Spec: spec}, q: q}
	if spec.IsHistory() {
		rows, err := r.evaluateHistory(q, spec)
		if err != nil {
			r.nextID-- // the id was never exposed
			return Info{}, err
		}
		reg.info.Finished = true
		r.queries[id] = reg
		r.buffer(reg, rows)
		return reg.info, nil
	}
	r.queries[id] = reg
	return reg.info, nil
}

// evaluateHistory runs a query operator over the retained epoch history,
// clamped to the spec's [FromEpoch, ToEpoch] range. Caller holds r.mu.
func (r *Registry) evaluateHistory(q Continuous, spec Spec) ([]any, error) {
	if r.history == nil {
		return nil, fmt.Errorf("query: history-mode queries are not available (no history source)")
	}
	oldest, newest, ok := r.history.HistoryBounds()
	if !ok {
		return nil, fmt.Errorf("query: no epoch history retained yet")
	}
	from, to := spec.FromEpoch, spec.ToEpoch
	if to == 0 || to > newest {
		to = newest
	}
	if from < oldest {
		from = oldest
	}
	if from > to {
		return nil, fmt.Errorf("query: history range [%d, %d] is outside the retained epochs [%d, %d]",
			spec.FromEpoch, spec.ToEpoch, oldest, newest)
	}
	var rows []any
	for ep := from; ep <= to; ep++ {
		events, ok := r.history.HistoryEvents(ep)
		if !ok {
			continue // epoch evicted between bounds check and read
		}
		for _, ev := range events {
			rows = append(rows, q.PushEvent(ev)...)
		}
	}
	rows = append(rows, q.FlushFinal()...)
	return rows, nil
}

// Unregister removes a query; false when the id is unknown.
func (r *Registry) Unregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.queries[id]
	delete(r.queries, id)
	return ok
}

// Count returns the number of registered queries without materializing their
// descriptions (the allocation-free companion to List for counters and
// resource views).
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// List returns the registered queries sorted by id.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.queries))
	for _, reg := range r.queries {
		out = append(out, reg.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Feed pushes a batch of clean events (which must be in time order, as the
// engine emits them) through every registered query and buffers the produced
// rows. It returns the total number of new rows.
func (r *Registry) Feed(events []stream.Event) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range events {
		for _, reg := range r.queries {
			if reg.info.Finished {
				continue
			}
			n += r.buffer(reg, reg.q.PushEvent(ev))
		}
	}
	return n
}

// FlushAll tells every query the stream ended, buffering the rows held back
// for the open epoch. The registry remains usable afterwards: feeding resumes
// with the next epoch, and each epoch's rows are emitted once.
func (r *Registry) FlushAll() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, reg := range r.queries {
		if reg.info.Finished {
			continue
		}
		n += r.buffer(reg, reg.q.FlushFinal())
	}
	return n
}

// buffer appends rows to a query's result buffer, evicting the oldest rows
// beyond the cap by advancing the start offset (the backing slice is
// compacted only once the dead prefix exceeds the cap, so eviction costs
// amortized O(1) per row). Caller holds r.mu.
func (r *Registry) buffer(reg *registered, rows []any) int {
	for _, row := range rows {
		reg.results = append(reg.results, Result{Seq: reg.info.NextSeq, Row: row})
		reg.info.NextSeq++
	}
	if r.maxBuffered > 0 {
		if over := len(reg.live()) - r.maxBuffered; over > 0 {
			reg.info.Dropped += over
			reg.start += over
		}
		if reg.start > r.maxBuffered {
			reg.results = append([]Result(nil), reg.live()...)
			reg.start = 0
		}
	}
	reg.info.Buffered = len(reg.live())
	return len(rows)
}

// Results returns up to limit buffered results with Seq > afterSeq (limit
// <= 0 means no limit) together with the query's current info; the error is
// non-nil when the id is unknown. Results stay buffered until evicted by the
// cap, so polling is idempotent.
func (r *Registry) Results(id string, afterSeq, limit int) ([]Result, Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg, ok := r.queries[id]
	if !ok {
		return nil, Info{}, fmt.Errorf("query: unknown query id %q", id)
	}
	// Binary search: buffered seqs are contiguous and ascending.
	live := reg.live()
	idx := sort.Search(len(live), func(i int) bool { return live[i].Seq > afterSeq })
	out := live[idx:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return append([]Result(nil), out...), reg.info, nil
}
