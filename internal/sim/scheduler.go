// Package sim provides the deterministic discrete-event core that every
// other subsystem of the simulator is built on: a virtual clock, an event
// scheduler with cancellable timers, and a reproducible random number
// generator.
//
// The engine is single-threaded by design. Determinism — the property that
// the same seed and the same scenario produce the same trace, bit for bit —
// is what makes the reproduction of the paper's figures meaningful, so the
// scheduler breaks ties between simultaneous events by scheduling order
// (FIFO) rather than by map iteration or goroutine interleaving.
//
// The scheduler is also the simulator's hottest loop: every frame, timer,
// and mobility manoeuvre passes through it several times. It therefore
// keeps its pending events in a monotone radix heap keyed on the bit
// pattern of the event time (O(1) schedule and cancel, and a pop that
// moves each event a few times in its life rather than sifting it through
// a binary heap), and recycles event nodes and queue storage through
// per-scheduler pools, so steady-state scheduling performs no heap
// allocation at all. Timer handles are generation-checked values: a
// handle kept past its event's firing (or cancellation) goes permanently
// inert, even after the underlying node has been recycled for a new event.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in seconds since the start of the run.
//
// A float64 carries 53 bits of mantissa: at nanosecond granularity this is
// exact past 10^6 simulated seconds, far beyond any scenario in this
// repository. This mirrors ns-2, which the paper used, and keeps arithmetic
// with physical quantities (metres, metres/second) direct.
type Time float64

// Common durations, usable as Time deltas.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Seconds returns the time as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time with microsecond precision, e.g. "12.000350s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)) }

// Forever is a time later than any event a scenario can schedule. It is the
// natural "no deadline" sentinel for RunUntil.
const Forever = Time(math.MaxFloat64)

// EventKind classifies a scheduled event by the stack layer that created
// it, for scheduler profiling. Tagging is optional: events scheduled via
// the plain Schedule/At are KindOther.
type EventKind uint8

// Event kinds, one per instrumented layer.
const (
	KindOther EventKind = iota
	KindPHY
	KindMAC
	KindRouting
	KindTransport
	KindApp
	KindMobility
	KindObs // measurement/recording machinery (animation, samplers)

	numKinds
)

var kindNames = [numKinds]string{
	"other", "phy", "mac", "routing", "transport", "app", "mobility", "obs",
}

// String returns the kind's profile label.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// timerNode is the scheduler-owned state of one scheduled event. Nodes are
// recycled through the owning scheduler's free list; gen distinguishes the
// node's current tenancy from stale Timer handles issued for earlier ones.
// A node is pending while one of its callbacks is set; a cancelled node
// keeps its queue entry, with both callbacks cleared, until the queue
// drops that entry and recycles the node.
type timerNode struct {
	fn    func()    // nil when fnArg carries the callback
	fnArg func(any) // argument-taking callback, avoids per-event closures
	arg   any
	owner *Scheduler
	gen   uint64
	kind  EventKind
}

// cancelled reports whether n's event was cancelled while queued.
func (n *timerNode) cancelled() bool { return n.fn == nil && n.fnArg == nil }

// Timer is a handle to a scheduled event. It is a small value: copy it
// freely. The zero value is inert — Cancel is a no-op and Active reports
// false — so a struct field of type Timer needs no initialisation and can
// be reset by assigning Timer{}. A handle kept after its event fired or
// was cancelled is equally inert: the scheduler recycles event storage,
// and the handle's generation check makes stale use safe.
type Timer struct {
	n   *timerNode
	gen uint64
	at  Time
}

// Cancel prevents the timer from firing, in O(1): the event stops counting
// as pending at once, and its queue entry is dropped when the queue next
// reaches it (or compacts). Cancelling an already-fired, already-cancelled,
// or zero-value timer is a no-op.
func (t Timer) Cancel() {
	n := t.n
	if n == nil || n.gen != t.gen {
		return
	}
	n.owner.cancel(n)
}

// Active reports whether the timer is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool { return t.n != nil && t.n.gen == t.gen }

// When returns the simulated time the timer is (or was) set to fire. The
// zero value reports 0.
func (t Timer) When() Time { return t.at }

// Scheduler is the discrete-event executive: it owns the virtual clock and
// the pending-event queue. The zero value is a ready-to-use scheduler at
// time 0.
type Scheduler struct {
	now     Time
	q       radixQueue   // pending events, earliest first
	live    int          // pending events: queued and not cancelled
	free    []*timerNode // recycled nodes, LIFO
	stopped bool

	executed   uint64           // number of events fired, for instrumentation
	byKind     [numKinds]uint64 // events fired, split by EventKind
	maxPending int              // pending-event high-water mark

	// stepHook, when non-nil, observes every clock advance just before it
	// happens (from current time to the firing event's time). It exists for
	// the runtime invariant checker; the disabled state costs Step one nil
	// comparison.
	stepHook func(from, to Time)
}

// SetStepHook installs an observer called on every Step with the clock's
// current and next value, before the advance. Pass nil to remove it. The
// hook must not schedule or cancel events.
func (s *Scheduler) SetStepHook(fn func(from, to Time)) { s.stepHook = fn }

// New returns a scheduler with its clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of events fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// ExecutedByKind returns per-kind fired-event counts, indexed by
// EventKind (length numKinds; use EventKind.String for labels).
func (s *Scheduler) ExecutedByKind() []uint64 {
	out := make([]uint64, numKinds)
	copy(out, s.byKind[:])
	return out
}

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.live }

// MaxPending returns the pending-event high-water mark: the largest number
// of simultaneously scheduled events seen so far.
func (s *Scheduler) MaxPending() int { return s.maxPending }

// Schedule runs fn after delay of simulated time and returns a cancellable
// handle. A zero delay schedules fn at the current time, after all events
// already scheduled for that time (FIFO tie-break). Schedule panics on a
// negative delay or NaN: scheduling into the past is always a simulator
// bug, and silently clamping it would hide causality violations.
func (s *Scheduler) Schedule(delay Time, fn func()) Timer {
	return s.ScheduleKind(KindOther, delay, fn)
}

// ScheduleKind is Schedule with an EventKind tag for scheduler profiling.
func (s *Scheduler) ScheduleKind(kind EventKind, delay Time, fn func()) Timer {
	if delay < 0 || math.IsNaN(float64(delay)) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	return s.AtKind(kind, s.now+delay, fn)
}

// ScheduleArgKind schedules fn(arg) after delay. Passing the argument
// through the scheduler lets hot paths reuse one long-lived callback
// instead of allocating a capturing closure per event; arg is typically a
// pooled struct pointer, which boxes into the any without allocating.
func (s *Scheduler) ScheduleArgKind(kind EventKind, delay Time, fn func(any), arg any) Timer {
	if delay < 0 || math.IsNaN(float64(delay)) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	if fn == nil {
		panic("sim: At with nil func")
	}
	return s.insert(kind, s.now+delay, nil, fn, arg)
}

// At runs fn at absolute simulated time t. It panics if t is in the past.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.AtKind(KindOther, t, fn)
}

// AtKind is At with an EventKind tag for scheduler profiling.
func (s *Scheduler) AtKind(kind EventKind, t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil func")
	}
	return s.insert(kind, t, fn, nil, nil)
}

// slabNodes is how many nodes the scheduler allocates at once: a
// cancelled node waits in the queue until its entry is dropped, so a run
// holds up to about twice as many nodes as it has pending events.
const slabNodes = 16

// insert allocates (or recycles) a node, queues it, and issues its handle.
func (s *Scheduler) insert(kind EventKind, t Time, fn func(), fnArg func(any), arg any) Timer {
	if t < s.now || math.IsNaN(float64(t)) {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, s.now))
	}
	if len(s.free) == 0 {
		slab := new([slabNodes]timerNode)
		for k := range slab {
			slab[k].owner = s
			s.free = append(s.free, &slab[k])
		}
	}
	k := len(s.free) - 1
	n := s.free[k]
	s.free[k] = nil
	s.free = s.free[:k]
	n.fn, n.fnArg, n.arg, n.kind = fn, fnArg, arg, kind
	s.q.push(entry{key: timeKey(t), n: n})
	s.live++
	if s.live > s.maxPending {
		s.maxPending = s.live
	}
	return Timer{n: n, gen: n.gen, at: t}
}

// retire ends n's tenancy: its generation bump turns all outstanding
// handles inert, and the callback references are dropped so neither the
// queue nor the free list pins closures or arguments.
func (n *timerNode) retire() {
	n.gen++
	n.fn = nil
	n.fnArg = nil
	n.arg = nil
}

// cancel retires a pending node. Its entry stays queued, dead, until the
// queue drops it and hands the node back through recycle; when dead
// entries outnumber live ones by more than a chunk, the queue compacts, so
// a timer cancelled and re-armed over and over cannot grow it.
func (s *Scheduler) cancel(n *timerNode) {
	n.retire()
	s.live--
	s.q.dead++
	if s.q.dead > s.live+chunkLen {
		s.q.compact(s)
	}
}

// recycle returns a node whose entry has left the queue to the free list.
func (s *Scheduler) recycle(n *timerNode) { s.free = append(s.free, n) }

// fire advances the clock to e and invokes its callback. It captures the
// callback and recycles the node before invoking it, so a callback that
// immediately reschedules reuses this node's storage.
func (s *Scheduler) fire(e entry) {
	at := Time(math.Float64frombits(e.key))
	if s.stepHook != nil {
		s.stepHook(s.now, at)
	}
	s.now = at
	s.executed++
	n := e.n
	s.byKind[n.kind]++
	s.live--
	fn, fnArg, arg := n.fn, n.fnArg, n.arg
	n.retire()
	s.recycle(n)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
}

// Step fires the single earliest pending event. It returns false if no
// events remain or the scheduler has been stopped.
func (s *Scheduler) Step() bool {
	if s.stopped || s.live == 0 {
		return false
	}
	e, _ := s.q.pop(s, math.MaxUint64)
	s.fire(e)
	return true
}

// Run fires events until none remain or Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline (if the run wasn't stopped early). Events scheduled
// after the deadline remain pending. It panics on a NaN deadline, which
// no event compares later than, so the run would never stop.
func (s *Scheduler) RunUntil(deadline Time) {
	if math.IsNaN(float64(deadline)) {
		panic(fmt.Sprintf("sim: RunUntil with NaN deadline at t=%v", s.now))
	}
	if deadline < s.now {
		return // every pending event is at or after now
	}
	limit := timeKey(deadline)
	for {
		if s.stopped {
			return
		}
		if s.live == 0 {
			break
		}
		e, ok := s.q.pop(s, limit)
		if !ok {
			break
		}
		s.fire(e)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
// Pending events are kept; a stopped scheduler fires nothing further.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// The pending queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin &
// Tarjan, JACM 1990). It relies on two facts about the simulator: no
// event is ever scheduled before now, so the keys it extracts never
// decrease, and for non-negative times the IEEE-754 bit pattern of the
// time, read as an unsigned integer, orders exactly like the time itself.
// The key is that bit pattern (timeKey), and last is the key most
// recently extracted. Last never passes the clock (pop commits no key
// beyond its limit), so every push is at or after it, and a queue that
// empties needs no reset.
//
// Bucket b[i], i >= 1, holds the entries whose highest bit differing
// from last is bit i-1 (counting from the least significant bit); b[0]
// holds the entries whose key equals last. A push is one append to the
// bucket its key selects. A pop drains b[0] first, in FIFO order. When
// b[0] is empty, it takes the lowest non-empty bucket b[i], finds that
// bucket's minimum by a scan (cheaper than tracking it on every append),
// sets last to it, and re-appends the bucket's entries in order: each
// now differs from last only below bit i-1, so each lands in a lower
// bucket. The first entry at the new minimum is the next one out, so it
// is handed out at once instead of being appended to b[0], and a bucket
// holding a single entry is handed out without a redistribution. An
// entry moves at most 64 times in its life, and on the simulator's key
// streams far fewer (about two on average in trial 3, four on the
// 1000-vehicle highway).
//
// Equal times fire in scheduling order without the queue ever comparing
// sequence numbers. An entry's bucket is a function of its key and last,
// and when last moves to the minimum of b[i], the entries in buckets
// above i keep their bucket (the new last agrees with the old one from
// bit i-1 up). So entries with equal keys always sit in the same bucket.
// Within a bucket they are in push order, because every append is to the
// tail; a redistribution walks b[i] in order and appends only to buckets
// below i, which are all empty when it starts, so it keeps that order,
// and the entry it hands out is the first of its time; and b[0] is
// drained from the head. By induction, every bucket lists equal keys in
// scheduling order, which is the (at, seq) tie-break.
//
// Cancellation is lazy: Cancel retires the node (the callbacks go, the
// generation moves) and leaves its entry queued. A cancelled entry is
// dropped when a pop or redistribution reaches it, and only then does its
// node return to the free list, so an entry never outlives its node's
// tenancy and needs no sequence number of its own. Compaction bounds the
// dead entries.
//
// Buckets are FIFOs of fixed-size chunks drawn from one per-queue pool.
// A bucket keeps its head chunk when it empties, so the many pushes that
// land in an empty bucket need no fetch, and the pool grows by slabs of
// chunks rather than by one allocation per chunk. The memory held is the
// live and dead entries, rounded up to chunks, plus one chunk per bucket
// ever used.

const (
	numBuckets = 65 // b[0] for key == last, b[i] for bit i-1, i = 1..64
	chunkLen   = 32 // entries per chunk
	slabChunks = 8  // chunks per pool allocation
)

// timeKey maps a time at or after zero to its queue key; -0 maps to +0.
func timeKey(t Time) uint64 {
	if t == 0 {
		return 0
	}
	return math.Float64bits(float64(t))
}

// entry is one queue slot: the event's key and its node.
type entry struct {
	key uint64
	n   *timerNode
}

// chunk is a fixed run of queue slots, linked into a bucket's FIFO or
// into the pool's spare list.
type chunk struct {
	e    [chunkLen]entry
	next *chunk
}

// bucket is a FIFO of entries over a chain of chunks: it reads head.e[r]
// and writes tail.e[w]. An empty bucket that has ever held an entry keeps
// one chunk, with head == tail and r == w == 0.
type bucket struct {
	head, tail *chunk
	r, w       int
	n          int // entries, cancelled ones included
}

// minKey returns the smallest key in the non-empty bucket b.
func (b *bucket) minKey() uint64 {
	m := uint64(math.MaxUint64)
	for c, r := b.head, b.r; c != nil; c, r = c.next, 0 {
		end := chunkLen
		if c == b.tail {
			end = b.w
		}
		for ; r < end; r++ {
			m = min(m, c.e[r].key)
		}
	}
	return m
}

// radixQueue is the scheduler's pending queue. The zero value is empty.
type radixQueue struct {
	last  uint64
	b     [numBuckets]bucket
	used  uint64 // bit i-1 is set while b[i], i >= 1, holds entries
	dead  int    // cancelled entries still queued
	spare *chunk // the pool's free chunks
}

// push appends e to the bucket its key selects; e.key must be >= last.
func (q *radixQueue) push(e entry) {
	i := bits.Len64(e.key ^ q.last)
	b := &q.b[i]
	if b.n == 0 || b.w == chunkLen {
		q.open(b, i)
	}
	b.tail.e[b.w] = e
	b.w++
	b.n++
}

// open readies b[i] for an append when it is empty or its tail chunk is
// full: the slow path of every append.
func (q *radixQueue) open(b *bucket, i int) {
	if b.n > 0 {
		c := q.chunk()
		b.tail.next = c
		b.tail, b.w = c, 0
		return
	}
	if b.tail == nil {
		c := q.chunk()
		b.head, b.tail = c, c
	}
	if i > 0 {
		q.used |= 1 << (i - 1)
	}
}

// pop removes and returns the earliest live entry if its key is at most
// limit. Otherwise it reports false, having moved last no further than
// limit: a RunUntil that stops short of the next event must leave room to
// schedule before it.
func (q *radixQueue) pop(s *Scheduler, limit uint64) (entry, bool) {
	for {
		if b := &q.b[0]; b.n > 0 {
			e := q.shift(b)
			if e.n.cancelled() {
				q.drop(s, e.n)
				continue
			}
			return e, true
		}
		if q.used == 0 {
			return entry{}, false
		}
		i := bits.TrailingZeros64(q.used) + 1
		b := &q.b[i]
		if b.n == 1 {
			e := b.head.e[b.r]
			if e.key > limit {
				return entry{}, false
			}
			q.last = e.key
			b.r, b.w, b.n = 0, 0, 0
			q.used &^= 1 << (i - 1)
			if !e.n.cancelled() {
				return e, true
			}
			q.drop(s, e.n)
			continue
		}
		m := b.minKey()
		if m > limit {
			return entry{}, false
		}
		q.last = m
		if e, ok := q.redistribute(s, i); ok {
			return e, true
		}
	}
}

// shift removes the head entry of the non-empty bucket b.
func (q *radixQueue) shift(b *bucket) entry {
	e := b.head.e[b.r]
	b.r++
	b.n--
	if b.n == 0 {
		b.r, b.w = 0, 0
	} else if b.r == chunkLen {
		c := b.head
		b.head, b.r = c.next, 0
		q.release(c)
	}
	return e
}

// redistribute empties b[i], the lowest non-empty bucket, once last has
// moved to its minimum: each live entry, in order, moves to the lower
// bucket its key now selects, and each cancelled one is dropped. The
// first live entry at the minimum is the next event out, so it is
// returned rather than queued in b[0], ahead of any others at that time;
// ok is false if every entry at the minimum was cancelled.
func (q *radixQueue) redistribute(s *Scheduler, i int) (first entry, ok bool) {
	b := &q.b[i]
	q.used &^= 1 << (i - 1)
	keep, last := b.head, q.last
	for c, r := b.head, b.r; c != nil; r = 0 {
		end := chunkLen
		if c == b.tail {
			end = b.w
		}
		for ; r < end; r++ {
			e := c.e[r]
			if e.n.cancelled() {
				q.drop(s, e.n)
				continue
			}
			j := bits.Len64(e.key ^ last)
			if j == 0 && !ok {
				first, ok = e, true
				continue
			}
			// push, inlined by hand: entries spend their moves here.
			t := &q.b[j]
			if t.n == 0 || t.w == chunkLen {
				q.open(t, j)
			}
			t.tail.e[t.w] = e
			t.w++
			t.n++
		}
		next := c.next
		if c != keep {
			q.release(c)
		}
		c = next
	}
	keep.next = nil
	b.head, b.tail = keep, keep
	b.r, b.w, b.n = 0, 0, 0
	return first, ok
}

// compact drops every cancelled entry, keeping each bucket's order, and
// returns the chunks this frees to the pool.
func (q *radixQueue) compact(s *Scheduler) {
	for i := range q.b {
		b := &q.b[i]
		if b.n == 0 {
			continue
		}
		rc, r := b.head, b.r
		wc, w := b.head, b.r
		n := 0
		for left := b.n; left > 0; left-- {
			if r == chunkLen {
				rc, r = rc.next, 0
			}
			e := rc.e[r]
			r++
			if e.n.cancelled() {
				s.recycle(e.n)
				continue
			}
			if w == chunkLen {
				wc, w = wc.next, 0
			}
			wc.e[w] = e
			w++
			n++
		}
		for c := wc.next; c != nil; {
			next := c.next
			q.release(c)
			c = next
		}
		wc.next = nil
		b.tail, b.w, b.n = wc, w, n
		if n == 0 {
			b.r, b.w = 0, 0
			if i > 0 {
				q.used &^= 1 << (i - 1)
			}
		}
	}
	q.dead = 0
}

// drop discards a cancelled entry and recycles its node.
func (q *radixQueue) drop(s *Scheduler, n *timerNode) {
	q.dead--
	s.recycle(n)
}

// chunk takes a chunk from the pool, growing it by a slab when it is dry.
func (q *radixQueue) chunk() *chunk {
	if q.spare == nil {
		slab := new([slabChunks]chunk)
		for k := 0; k < slabChunks-1; k++ {
			slab[k].next = &slab[k+1]
		}
		q.spare = &slab[0]
	}
	c := q.spare
	q.spare = c.next
	c.next = nil
	return c
}

// release returns a chunk to the pool.
func (q *radixQueue) release(c *chunk) {
	c.next = q.spare
	q.spare = c
}
