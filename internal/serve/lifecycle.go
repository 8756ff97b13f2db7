package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/rfid/api"
)

// A session's lifecycle is one atomic word: its phase, its role (primary, or
// replica of a session on another node) and the close mark. The pinned worker
// — whoever holds the session pin — writes phase and role, only through
// transition, which checks lifeTable. The close mark is the one bit any
// goroutine may set (concurrent stops race for it). It is a mark, not a
// phase, because a closing session goes on draining the ops queued before its
// shutdown op in whatever phase it is in.

// phase is where a session is in its life.
type phase uint32

const (
	phaseStarting   phase = iota // startup (recovery, when durable) not run yet
	phaseRecovering              // replaying into a new engine: hydration, replica re-bootstrap
	phaseServing                 // a replica here has its mirror open and its cursor published
	phaseEvicted                 // spilled to disk (see hydrate.go); the first touch hydrates
	phaseFailed                  // recovery or a role change failed; every op is refused
	phaseClosed                  // shut down
)

var phaseNames = [...]string{"starting", "recovering", "serving", "evicted", "failed", "closed"}

// String is the v1 state vocabulary, for a session and (see Server.state) the
// server. A pending startup reports recovering: requests queue behind it.
func (p phase) String() string {
	if p == phaseStarting {
		p = phaseRecovering
	}
	return phaseNames[p]
}

// life is one value of the lifecycle word.
type life uint32

const (
	phaseMask  life = 1<<3 - 1
	replicaBit life = 1 << 3
	closingBit life = 1 << 4
)

func primaryIn(p phase) life   { return life(p) }
func replicaIn(p phase) life   { return life(p) | replicaBit }
func (l life) phase() phase    { return phase(l & phaseMask) }
func (l life) replica() bool   { return l&replicaBit != 0 }
func (l life) closing() bool   { return l&closingBit != 0 || l.phase() == phaseClosed }
func (l life) in(p phase) life { return l&^phaseMask | life(p) }
func (l life) String() string {
	return fmt.Sprintf("%s/replica=%t/closing=%t", phaseNames[l.phase()], l.replica(), l&closingBit != 0)
}
func (lc *lifecycle) load() life { return life(lc.word.Load()) }

// readable reports whether direct reads may use the resident engine and
// registries: while the session starts or recovers they hold a half-replayed
// state (kept after a failure), so reads fence behind the recovery instead.
func (l life) readable() bool {
	p := l.phase()
	return p != phaseStarting && p != phaseRecovering && p != phaseFailed
}

// lifeTable is every legal move and who makes it. Any other move is a bug.
var lifeTable = map[[2]life]string{
	{primaryIn(phaseStarting), primaryIn(phaseServing)}:   "startup",
	{primaryIn(phaseStarting), primaryIn(phaseFailed)}:    "startup",
	{primaryIn(phaseServing), primaryIn(phaseEvicted)}:    "evict op",
	{primaryIn(phaseEvicted), primaryIn(phaseRecovering)}: "hydration (first touch)",
	{primaryIn(phaseRecovering), primaryIn(phaseServing)}: "hydration",
	{primaryIn(phaseRecovering), primaryIn(phaseFailed)}:  "hydration",
	{primaryIn(phaseStarting), primaryIn(phaseClosed)}:    "close",
	{primaryIn(phaseServing), primaryIn(phaseClosed)}:     "shutdown op, close",
	{primaryIn(phaseEvicted), primaryIn(phaseClosed)}:     "close (evicted fast path), shutdown op",
	{primaryIn(phaseFailed), primaryIn(phaseClosed)}:      "close",

	{replicaIn(phaseStarting), replicaIn(phaseServing)}:   "startup",
	{replicaIn(phaseStarting), replicaIn(phaseFailed)}:    "startup",
	{replicaIn(phaseServing), replicaIn(phaseRecovering)}: "re-bootstrap op",
	{replicaIn(phaseRecovering), replicaIn(phaseServing)}: "re-bootstrap op",
	{replicaIn(phaseRecovering), replicaIn(phaseFailed)}:  "re-bootstrap op",
	{replicaIn(phaseServing), primaryIn(phaseServing)}:    "promote op",
	{replicaIn(phaseServing), replicaIn(phaseFailed)}:     "promote op",
	{replicaIn(phaseStarting), replicaIn(phaseClosed)}:    "close",
	{replicaIn(phaseServing), replicaIn(phaseClosed)}:     "shutdown op, close",
	{replicaIn(phaseFailed), replicaIn(phaseClosed)}:      "close",
}

// lifecycle is the lifecycle word plus why the session failed (cause) and
// whether its startup did (atStart). The move into phaseFailed writes those
// before it publishes the phase; they are read only after loading it.
type lifecycle struct {
	word    atomic.Uint32
	cause   error
	atStart bool
}

// markClosing is the close CAS: it sets the close mark and reports whether
// this call did (false when the session is already closing or closed).
func (lc *lifecycle) markClosing() bool {
	for {
		w := lc.word.Load()
		if life(w).closing() {
			return false
		}
		if lc.word.CompareAndSwap(w, w|uint32(closingBit)) {
			return true
		}
	}
}

// startErr is why startup failed (nil when it did not, or has not finished).
func (lc *lifecycle) startErr() error {
	if lc.load().phase() == phaseFailed && lc.atStart {
		return lc.cause
	}
	return nil
}

// strictLifecycle makes an illegal move panic; the package's tests set it.
var strictLifecycle = false

// transition moves the session between phase-and-role states, keeping the
// close mark. A non-nil cause fails the move: the session goes to phaseFailed
// instead of to, recording why. Pinned worker only. A move missing from
// lifeTable, or not starting where the session is, is a bug: it panics under
// test, and otherwise is logged and fails the session, which then refuses
// every op.
func (s *session) transition(from, to life, cause error) {
	from, to = from&^closingBit, to&^closingBit
	if cause != nil {
		to = from.in(phaseFailed)
	}
	cur := s.life.load()
	if cur&^closingBit != from || lifeTable[[2]life{from, to}] == "" {
		cause = fmt.Errorf("serve: session %q: illegal lifecycle move %v -> %v (session is %v)", s.id, from, to, cur)
		if strictLifecycle {
			panic(cause)
		}
		s.log.Error("illegal lifecycle move; failing the session", "err", cause)
		if p := cur.phase(); p == phaseFailed || p == phaseClosed {
			return
		}
		to = cur.in(phaseFailed) &^ closingBit
	}
	if to.phase() == phaseFailed {
		s.life.cause, s.life.atStart = cause, from.phase() == phaseStarting
	}
	for !s.life.word.CompareAndSwap(uint32(cur), uint32(to|cur&closingBit)) {
		cur = s.life.load() // only the close mark can have changed
	}
}

// admitKind is what a request wants of a session.
type admitKind uint8

const (
	admitRead      admitKind = iota // always admitted: resident waits out recovery and reports a failure
	admitWrite                      // a mutation, which only a primary node takes
	admitStream                     // a stream attach: a write told when to retry
	admitReplicate                  // a shipped record or bootstrap from the follower link
)

// admit is the admission check a request makes before it touches the
// session: unavailable once the server or the session is closing, read_only
// for a write on a node that is not primary.
func (s *session) admit(k admitKind) error {
	if k == admitRead {
		return nil
	}
	if s.node.closed.Load() || s.life.load().closing() {
		e := &api.Error{Code: api.ErrUnavailable, Message: "session is shutting down", HTTPStatus: http.StatusServiceUnavailable}
		if k == admitStream {
			e.RetryAfterMS = 1000
		}
		return e
	}
	if k == admitReplicate {
		return nil
	}
	return s.node.readOnlyErr()
}
