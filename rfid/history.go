package rfid

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// history is the Runner's time-travel change log: the ring of retained sealed
// epochs and, per tracked object, a chain of versions — the estimate the
// object had at each sealed epoch where it differed from the one before. The
// estimate of an object at epoch e is the newest version at or before e, so a
// seal costs what the objects whose estimate can have moved cost, not the
// tracked population, and a read costs one binary search per object.
type history struct {
	// capacity bounds the ring; zero disables history.
	capacity int
	// epochs[start:] are the retained sealed epochs, ascending; the dead
	// prefix is compacted lazily (amortized O(1) eviction).
	epochs []int
	start  int
	// chains holds every recorded object's chain in tag order; byTag finds
	// one by tag.
	chains []*chain
	byTag  map[TagID]*chain
	// gen numbers the seals: a chain with gen == h.gen was recorded at the
	// current one.
	gen uint64
	// ids is the seal's scratch list of possibly moved objects.
	ids []TagID
}

// chain is one object's versions in ascending epoch order. Versions older
// than the newest one at or before the oldest retained epoch can no longer be
// read; they are trimmed whenever the chain grows.
type chain struct {
	tag      TagID
	versions []version
	gen      uint64
}

// version is an object's estimate as recorded when an epoch was sealed.
type version struct {
	epoch int
	loc   Vec3
	stats EventStats
}

func newHistory(capacity int) history {
	return history{capacity: capacity, byTag: make(map[TagID]*chain)}
}

// live returns the retained epochs, oldest first.
func (h *history) live() []int { return h.epochs[h.start:] }

// record appends the just-sealed epoch to the ring and records a version for
// every object whose estimate can have moved during it: the objects the
// engine emitted an event for (whose event carries the current estimate —
// reporting runs after every state change of the epoch) and the ones the
// engine lists as possibly moved. Any other object's estimate is unchanged,
// so its chain already answers for this epoch.
func (h *history) record(epoch int, events []Event, eng *core.Engine) {
	if h.capacity <= 0 {
		return
	}
	h.pushEpoch(epoch)
	h.gen++
	oldest := h.live()[0]
	for _, ev := range events {
		h.put(h.chainFor(ev.Tag), epoch, oldest, ev.Loc, ev.Stats)
	}
	h.ids = eng.AppendMaybeMoved(h.ids[:0])
	for _, id := range h.ids {
		if c := h.chainFor(id); c.gen != h.gen {
			if loc, st, ok := eng.Estimate(id); ok {
				h.put(c, epoch, oldest, loc, st)
			}
		}
	}
	// Objects without a chain — every object, on the first seal after a
	// restore from a checkpoint that carried no history — are recorded in
	// full once.
	if len(h.chains) != eng.Stats().TrackedObjects {
		for _, id := range eng.TrackedObjects() {
			if _, ok := h.byTag[id]; ok {
				continue
			}
			if loc, st, ok := eng.Estimate(id); ok {
				h.put(h.chainFor(id), epoch, oldest, loc, st)
			}
		}
	}
}

// pushEpoch appends a sealed epoch, evicting beyond the capacity.
func (h *history) pushEpoch(epoch int) {
	h.epochs = append(h.epochs, epoch)
	if over := len(h.epochs) - h.start - h.capacity; over > 0 {
		h.start += over
	}
	if h.start > h.capacity {
		h.epochs = h.epochs[:copy(h.epochs, h.epochs[h.start:])]
		h.start = 0
	}
}

// chainFor returns the object's chain, inserting an empty one in tag order
// when the object has none yet.
func (h *history) chainFor(id TagID) *chain {
	if c, ok := h.byTag[id]; ok {
		return c
	}
	c := &chain{tag: id}
	i := sort.Search(len(h.chains), func(i int) bool { return h.chains[i].tag >= id })
	h.chains = slices.Insert(h.chains, i, c)
	h.byTag[id] = c
	return c
}

// put records the estimate at epoch, unless it equals the chain's latest bit
// for bit, and trims what the ring no longer reaches.
func (h *history) put(c *chain, epoch, oldest int, loc Vec3, st EventStats) {
	c.gen = h.gen
	if n := len(c.versions); n > 0 && sameEstimate(c.versions[n-1], loc, st) {
		return
	}
	c.versions = append(c.versions, version{epoch: epoch, loc: loc, stats: st})
	c.versions = c.versions[firstLive(c.versions, oldest):]
}

// firstLive returns the index of the newest version at or before oldest (the
// one that answers for it), or zero when every version is newer.
func firstLive(vs []version, oldest int) int {
	k := 0
	for k+1 < len(vs) && vs[k+1].epoch <= oldest {
		k++
	}
	return k
}

// sameEstimate reports whether v records exactly this estimate.
func sameEstimate(v version, loc Vec3, st EventStats) bool {
	return sameBits(v.loc, loc) && sameBits(v.stats.Variance, st.Variance) &&
		v.stats.NumParticles == st.NumParticles && v.stats.Compressed == st.Compressed
}

func sameBits(a, b Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// events materializes the snapshot of a retained epoch: every object that had
// a version by then, in tag order, with its estimate at that epoch.
func (h *history) events(epoch int) ([]Event, bool) {
	if _, ok := slices.BinarySearch(h.live(), epoch); !ok {
		return nil, false
	}
	out := make([]Event, 0, len(h.chains))
	for _, c := range h.chains {
		if v, ok := c.at(epoch); ok {
			out = append(out, Event{Time: epoch, Tag: c.tag, Loc: v.loc, Stats: v.stats})
		}
	}
	return out, true
}

// at returns the newest version at or before epoch — usually the latest one,
// since most objects' estimates are frozen in compressed form.
func (c *chain) at(epoch int) (version, bool) {
	vs := c.versions
	if n := len(vs); n > 0 && vs[n-1].epoch <= epoch {
		return vs[n-1], true
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].epoch > epoch }) - 1
	if i < 0 {
		return version{}, false
	}
	return vs[i], true
}

// save appends the history in payload version 2: the retained epochs, then
// every chain in tag order with the versions the ring still reaches, a
// version older than the oldest retained epoch written as of that epoch. The
// encoding is canonical — it depends only on what the retained epochs read —
// so a restored runner re-saves the bytes an uninterrupted one writes.
func (h *history) save(e *checkpoint.Encoder) {
	live := h.live()
	e.Uvarint(uint64(len(live)))
	for _, ep := range live {
		e.Int(ep)
	}
	if len(live) == 0 {
		e.Uvarint(0)
		return
	}
	oldest := live[0]
	e.Uvarint(uint64(len(h.chains)))
	for _, c := range h.chains {
		e.String(string(c.tag))
		vs := c.versions[firstLive(c.versions, oldest):]
		e.Uvarint(uint64(len(vs)))
		for _, v := range vs {
			e.Int(max(v.epoch, oldest))
			saveEstimate(e, v.loc, v.stats)
		}
	}
}

func saveEstimate(e *checkpoint.Encoder, loc Vec3, st EventStats) {
	e.Vec3(loc)
	e.Vec3(st.Variance)
	e.Int(st.NumParticles)
	e.Bool(st.Compressed)
}

func restoreEstimate(d *checkpoint.Decoder) (Vec3, EventStats) {
	loc := d.Vec3()
	var st EventStats
	st.Variance = d.Vec3()
	st.NumParticles = d.Int()
	st.Compressed = d.Bool()
	return loc, st
}

// restoreHistory decodes a history written in the decoder's payload version
// into a ring of the given capacity: version 2 carries chains, version 1 one
// full snapshot per retained epoch, which is folded into chains. A capacity
// smaller than the producer's keeps the newest epochs. Corrupt input errors,
// never panics.
func restoreHistory(d *checkpoint.Decoder, capacity int) (history, error) {
	h := newHistory(capacity)
	if d.Version() < 2 {
		restoreSnapshots(d, &h)
	} else if err := restoreChains(d, &h); err != nil {
		return history{}, err
	}
	if err := d.Err(); err != nil {
		return history{}, err
	}
	for i := 1; i < len(h.epochs); i++ {
		if h.epochs[i] <= h.epochs[i-1] {
			return history{}, fmt.Errorf("rfid: history epochs out of order (%d after %d)", h.epochs[i], h.epochs[i-1])
		}
	}
	if capacity <= 0 {
		return newHistory(capacity), nil
	}
	if over := len(h.epochs) - capacity; over > 0 {
		h.epochs = h.epochs[over:]
	}
	if len(h.epochs) > 0 {
		for _, c := range h.chains {
			c.versions = c.versions[firstLive(c.versions, h.epochs[0]):]
		}
	}
	return h, nil
}

// restoreChains reads the version-2 layout written by save.
func restoreChains(d *checkpoint.Decoder, h *history) error {
	n := d.SliceLen(1)
	for i := 0; i < n && d.Err() == nil; i++ {
		h.epochs = append(h.epochs, d.Int())
	}
	nc := d.SliceLen(2)
	for i := 0; i < nc && d.Err() == nil; i++ {
		c := &chain{tag: TagID(d.String())}
		if len(h.chains) > 0 && c.tag <= h.chains[len(h.chains)-1].tag {
			return fmt.Errorf("rfid: history chains out of tag order at %q", c.tag)
		}
		// epoch + location + variance + particle count + compressed flag
		nv := d.SliceLen(1 + 48 + 1 + 1)
		for j := 0; j < nv && d.Err() == nil; j++ {
			v := version{epoch: d.Int()}
			v.loc, v.stats = restoreEstimate(d)
			if j > 0 && v.epoch <= c.versions[j-1].epoch {
				return fmt.Errorf("rfid: history versions of %q out of order", c.tag)
			}
			c.versions = append(c.versions, v)
		}
		h.chains = append(h.chains, c)
		h.byTag[c.tag] = c
	}
	return nil
}

// restoreSnapshots reads the version-1 layout — per retained epoch, every
// tracked object's event — appending a version wherever an object's
// estimate changed from the previous snapshot.
func restoreSnapshots(d *checkpoint.Decoder, h *history) {
	n := d.SliceLen(1)
	for i := 0; i < n && d.Err() == nil; i++ {
		epoch := d.Int()
		h.epochs = append(h.epochs, epoch)
		m := d.SliceLen(8)
		for j := 0; j < m && d.Err() == nil; j++ {
			d.Int() // the event's time, always the snapshot's epoch
			tag := TagID(d.String())
			loc, st := restoreEstimate(d)
			c, ok := h.byTag[tag]
			if !ok {
				c = &chain{tag: tag}
				h.byTag[tag] = c
				h.chains = append(h.chains, c)
			}
			if k := len(c.versions); k == 0 || !sameEstimate(c.versions[k-1], loc, st) {
				c.versions = append(c.versions, version{epoch: epoch, loc: loc, stats: st})
			}
		}
	}
	sort.Slice(h.chains, func(i, j int) bool { return h.chains[i].tag < h.chains[j].tag })
}
