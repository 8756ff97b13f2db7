package serve

// Live debug surfaces: GET /v1/sessions/{sid}/trace serves the per-epoch
// stage timings retained in the runner's trace ring, and GET
// /v1/sessions/{sid}/stats serves a point-in-time operational view of one
// session. Both are pure reads — neither hydrates an evicted session (the
// trace ring is in-memory state that eviction discards, and a debug poll
// sweeping every session must not drag cold engines back into memory).

import (
	"net/http"
	"time"

	"repro/internal/trace"
	"repro/rfid/api"
)

// stagesToAPI converts per-stage durations into seconds by stage name.
// Stages that recorded no time are omitted, keeping bodies small when only a
// few stages run.
func stagesToAPI(stages [trace.NumStages]time.Duration) map[string]float64 {
	out := make(map[string]float64, trace.NumStages)
	for st, d := range stages {
		if d > 0 {
			out[trace.Stage(st).String()] = d.Seconds()
		}
	}
	return out
}

// tracesToAPI converts recorded epoch traces into their wire form.
func tracesToAPI(traces []trace.EpochTrace) []api.TraceEpoch {
	out := make([]api.TraceEpoch, len(traces))
	for i, et := range traces {
		out[i] = api.TraceEpoch{
			Epoch:       et.Epoch,
			WallSeconds: et.Wall.Seconds(),
			Stages:      stagesToAPI(et.Stages),
		}
	}
	return out
}

// handleTrace answers GET .../trace?epochs=N with the last N sealed epochs'
// stage timings, oldest first (all retained epochs without ?epochs=).
func (sv *Server) handleTrace(w http.ResponseWriter, r *http.Request, sess *session) {
	n, err := intParam(r, "epochs", 0, 0)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	resp := api.TraceResponse{
		Enabled:  sess.cfg.TraceEpochs > 0,
		Capacity: sess.cfg.TraceEpochs,
		Epochs:   []api.TraceEpoch{},
	}
	// An evicted session keeps the configured capacity in the response but
	// has no ring to read.
	if runner := sess.engine(); runner != nil {
		resp.Epochs = tracesToAPI(runner.TraceRecorder().Snapshot(n))
	}
	writeJSON(w, http.StatusOK, resp)
}

// debugStats assembles the session's point-in-time operational view (shared
// by the HTTP handler and nothing else server-side; the SDK exposes the same
// struct through client.Session.Stats).
func (sv *Server) debugStats(sess *session) api.SessionDebugStats {
	out := api.SessionDebugStats{
		ID:            sess.id,
		State:         sess.life.load().phase().String(),
		Durable:       sess.durable(),
		Resident:      sess.engine() != nil,
		QueueDepth:    len(sess.ops),
		QueueCap:      cap(sess.ops),
		StreamActive:  sess.stream.Load() != nil,
		StreamSeq:     sess.lastStreamSeq.Load(),
		UptimeSeconds: time.Since(sess.start).Seconds(),
		Stats:         sv.sessionToAPI(sess).Stats,
	}
	if sess.durable() {
		out.CheckpointEpoch = sess.lastCkptEpoch.Load()
		if nanos := sess.lastCkptNanos.Load(); nanos > 0 {
			out.CheckpointAgeSeconds = time.Since(time.Unix(0, nanos)).Seconds()
		}
		out.WALSegment = uint64(sess.walSegment.Value())
	}
	if runner := sess.engine(); runner != nil {
		if rec := runner.TraceRecorder(); rec != nil {
			out.TraceEnabled = true
			out.TracedEpochs = rec.Epochs()
			out.StageSeconds = stagesToAPI(rec.CumulativeStages())
			out.RecentEpochs = tracesToAPI(rec.Snapshot(debugStatsRecentEpochs))
		}
	}
	return out
}

// debugStatsRecentEpochs bounds the recent-epoch breakdown embedded in the
// stats response; the full ring is available on the trace endpoint.
const debugStatsRecentEpochs = 8

// handleSessionStats answers GET .../stats.
func (sv *Server) handleSessionStats(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sv.debugStats(sess))
}
