package pq

import (
	"math/bits"

	"hdcps/internal/task"
)

// TwoLevel is the paper-faithful per-worker queue shape (§III-D): a small
// fixed-capacity **hot buffer** sorted on Prio, modeling the 48-entry hPQ —
// Pop is O(1) off the front, Push is a binary search plus a memmove of at
// most HotCap entries, all within one or two cache lines' worth of tasks —
// in front of a **monotone bucket cold store** with one FIFO bucket per
// priority, which absorbs spills with an append and serves them with a head
// bump instead of the O(log n) sifts a comparison heap pays.
//
// The bucket store is a power-of-two ring of per-priority FIFOs with an
// occupancy bitmap and a scan cursor. It is built for the monotone traffic
// integer-priority graph workloads emit (pops never decrease, pushes land at
// or above the cursor): a push below the cursor simply rewinds it — cheap,
// but counted — and a workload that keeps doing that (PageRank's residual
// priorities, coloring's static negative degrees) trips the runtime
// monotonicity detector, which migrates the cold store into the existing
// d-ary heap once and for all (Stats.Fallbacks). The hot buffer keeps
// serving either way.
//
// Ordering is PRIORITY-EXACT: every pop returns a task of the minimum
// resident Prio, regardless of spills, rewinds, or fallback; tasks of equal
// Prio may pop in any order. Nothing downstream needs more — delta-stepping
// gives whole wavefronts one Prio, and the order within one Prio does not
// change any workload's answer — while a (Prio, Node) total order would
// cost a heap sift on every cold push and pop. The simulator charges its
// hPQ cost model against this same structure, so native and simulated runs
// share one ordering, and every workload still Verify()s exactly under the
// native runtime.
//
// Like every pq.Queue, a TwoLevel is single-owner: no internal locking.
type TwoLevel struct {
	// hot[head:] is the resident window, ascending in Prio.
	hot   []task.Task
	head  int
	cap   int
	arity int

	cold coldBuckets
	// heap is non-nil once the monotonicity detector has fired: the cold
	// store's contents migrate here and all later spills follow.
	heap *DHeap

	rewindScore int
	size        int
	stats       TwoLevelStats
}

// TwoLevelConfig sizes a TwoLevel. The zero value gives the paper's shape:
// a 48-entry hot buffer, a cold ring growing to 64Ki buckets, and a 4-ary
// fallback heap.
type TwoLevelConfig struct {
	// HotCap is the hot-buffer capacity (<=0 selects 48, §III-D's hPQ size).
	HotCap int
	// MaxBuckets caps the cold ring's growth (rounded up to a power of two,
	// minimum 64; <=0 selects 1<<16). A resident priority span that cannot
	// fit triggers the heap fallback instead of further growth.
	MaxBuckets int
	// Arity is the fallback d-ary heap's branching factor (<=0 selects 4).
	Arity int
}

// TwoLevelStats are the queue's behavior counters, surfaced through the
// runtime's obs layer (hot_spills, queue_fallbacks).
type TwoLevelStats struct {
	Spills    int64 // tasks demoted or bounced from the hot buffer to cold
	Refills   int64 // bulk cold→hot promotions when the hot buffer ran dry
	Rewinds   int64 // cold pushes below the scan cursor (non-monotone events)
	Fallbacks int64 // monotonicity-detector trips (0 or 1 per queue)
}

// Rewind-storm detector: a leaky-bucket score over the cold-push stream.
// Every rewind adds rewindPenalty, every in-order push drains rewindForgive,
// and the cold store migrates to the comparison heap when the score reaches
// rewindStormScore. A sustained rewind rate above 1 in (1+rewindPenalty)
// trips it; transient turbulence (SSSP/BFS relaxation fronts early in a run)
// decays away instead of accumulating toward a trip the way a cumulative
// ratio would.
const (
	rewindPenalty    = 3
	rewindForgive    = 1
	rewindStormScore = 96
)

// twoLevelStartW is the cold ring's initial bucket count.
const twoLevelStartW = 256

// Bucket-storage slab parameters: fresh buckets start with bucketSeedCap
// entries of capacity carved from a bucketSlabLen-entry arena chunk. A
// drained bucket that grew to bucketBigCap or beyond moves to the freelist
// (up to bucketFreeMax entries) so the capacity follows the deep frontier —
// BFS drains one level's bucket as the next fills — while smaller ones stay
// parked at their ring index for the next priority that wraps onto it.
const (
	bucketSeedCap = 8
	bucketSlabLen = 1024
	bucketBigCap  = 16
	bucketFreeMax = 256
)

// NewTwoLevel returns an empty two-level queue.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	if cfg.HotCap <= 0 {
		cfg.HotCap = 48
	}
	if cfg.MaxBuckets <= 0 {
		cfg.MaxBuckets = 1 << 16
	}
	maxW := 64
	for maxW < cfg.MaxBuckets {
		maxW *= 2
	}
	if cfg.Arity <= 0 {
		cfg.Arity = 4
	}
	q := &TwoLevel{
		hot:   make([]task.Task, 0, 2*cfg.HotCap),
		cap:   cfg.HotCap,
		arity: cfg.Arity,
	}
	w := twoLevelStartW
	if w > maxW {
		w = maxW
	}
	q.cold.init(w, maxW)
	return q
}

// Len returns the number of queued tasks across both levels.
func (q *TwoLevel) Len() int { return q.size }

// HotLen returns the number of tasks resident in the hot buffer.
func (q *TwoLevel) HotLen() int { return len(q.hot) - q.head }

// ColdLen returns the number of tasks in the cold store (bucket ring or
// fallback heap) — the "software PQ" side of the simulator's cost model.
func (q *TwoLevel) ColdLen() int {
	n := q.cold.size
	if q.heap != nil {
		n += q.heap.Len()
	}
	return n
}

// Cap returns the hot buffer's fixed capacity.
func (q *TwoLevel) Cap() int { return q.cap }

// Stats returns the queue's behavior counters so far.
func (q *TwoLevel) Stats() TwoLevelStats { return q.stats }

// Push inserts t.
func (q *TwoLevel) Push(t task.Task) { q.PushEx(t) }

// PushEx inserts t and reports whether the insert spilled a task into the
// cold store (t itself, or the hot resident it displaced) — the hPQ-evict
// signal the simulator's §III-D composition observes.
func (q *TwoLevel) PushEx(t task.Task) (spilled bool) {
	q.size++
	if len(q.hot)-q.head < q.cap {
		q.hotInsert(t)
		return false
	}
	// Hot buffer full: keep the HotCap lowest priorities resident, exactly
	// like the hardware queue — a task of strictly lower Prio than the
	// current worst displaces it, anything else spills directly.
	q.stats.Spills++
	last := len(q.hot) - 1
	if t.Prio < q.hot[last].Prio {
		ev := q.hot[last]
		q.hot = q.hot[:last]
		q.hotInsert(t)
		q.coldPush(ev)
		return true
	}
	q.coldPush(t)
	return true
}

// PushCold inserts t directly into the cold store, bypassing the hot
// buffer — the simulator's seeding and RELD remote-insert paths, which the
// paper routes around the hPQ.
func (q *TwoLevel) PushCold(t task.Task) {
	q.size++
	q.coldPush(t)
}

// Pop removes and returns a task of the minimum resident Prio. An empty hot
// buffer refills in bulk from the cold store (up to HotCap tasks, arriving
// in priority order), so steady-state pops are O(1) loads off the hot front.
func (q *TwoLevel) Pop() (task.Task, bool) {
	if q.size == 0 {
		return task.Task{}, false
	}
	if q.head == len(q.hot) {
		q.refill()
	}
	q.size--
	hf := q.hot[q.head]
	if q.coldBelow(hf.Prio) {
		return q.coldPop(), true
	}
	q.popHot()
	return hf, true
}

// PopEx pops a task of the minimum resident Prio and reports whether the
// hot buffer served it (the hot front wins ties). Unlike Pop it never
// promotes cold tasks into the hot buffer, so each task's hot/cold
// provenance — what the simulator charges hardware vs software cycles for —
// matches the paper's hPQ+spill composition exactly.
func (q *TwoLevel) PopEx() (t task.Task, fromHot, ok bool) {
	if q.size == 0 {
		return task.Task{}, false, false
	}
	q.size--
	if q.head < len(q.hot) {
		hf := q.hot[q.head]
		if !q.coldBelow(hf.Prio) {
			q.popHot()
			return hf, true, true
		}
	}
	return q.coldPop(), false, true
}

// Peek returns the task Pop would return next, without removing it.
func (q *TwoLevel) Peek() (task.Task, bool) {
	if q.size == 0 {
		return task.Task{}, false
	}
	if q.head < len(q.hot) {
		hf := q.hot[q.head]
		if !q.coldBelow(hf.Prio) {
			return hf, true
		}
	}
	return q.coldPeek()
}

// popHot drops the hot front, rewinding the window once it empties.
func (q *TwoLevel) popHot() {
	q.head++
	if q.head == len(q.hot) {
		q.hot = q.hot[:0]
		q.head = 0
	}
}

// hotInsert places t into the Prio-sorted hot window, after any residents
// of equal Prio. Caller guarantees the window is below capacity. The
// backing array is twice HotCap, so the pop-front/push-back traffic graph
// workloads emit — head advances, new children land at the end — runs as
// plain appends with one bulk compaction per HotCap-ish inserts, instead of
// a per-insert memmove the moment the append slack runs out. Middle inserts
// shift whichever side is cheaper: the prefix into the head gap left by
// pops, the suffix into the append slack.
func (q *TwoLevel) hotInsert(t task.Task) {
	live := q.hot[q.head:]
	n := len(live)
	if n == 0 || t.Prio >= live[n-1].Prio {
		// End insert: the hot case for monotone priority streams, and for
		// every task of a wavefront sharing one Prio.
		if len(q.hot) == cap(q.hot) {
			copy(q.hot, live)
			q.hot = q.hot[:n]
			q.head = 0
		}
		q.hot = append(q.hot, t)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Prio < live[mid].Prio {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// A full backing array implies head > 0 (the live window is under
	// HotCap), so the prefix branch always absorbs that case and the append
	// below never reallocates.
	if q.head > 0 && (lo <= n-lo || len(q.hot) == cap(q.hot)) {
		copy(q.hot[q.head-1:], q.hot[q.head:q.head+lo])
		q.head--
		q.hot[q.head+lo] = t
		return
	}
	q.hot = append(q.hot, task.Task{})
	copy(q.hot[q.head+lo+1:], q.hot[q.head+lo:])
	q.hot[q.head+lo] = t
}

// refill bulk-promotes up to HotCap cold minima into the empty hot buffer;
// they leave the cold store in priority order.
func (q *TwoLevel) refill() {
	q.stats.Refills++
	q.hot = q.hot[:0]
	q.head = 0
	for i := 0; i < q.cap && q.ColdLen() > 0; i++ {
		q.hot = append(q.hot, q.coldPop())
	}
}

// coldPush routes a task to the cold store: the bucket ring while the
// priority stream looks monotone, the fallback heap after the detector
// fires (span overflow or a rewind storm).
func (q *TwoLevel) coldPush(t task.Task) {
	if q.heap != nil {
		q.heap.Push(t)
		return
	}
	if q.cold.size > 0 && t.Prio < q.cold.curQ {
		q.stats.Rewinds++
		q.rewindScore += rewindPenalty
	} else if q.rewindScore > 0 {
		q.rewindScore -= rewindForgive
	}
	if q.cold.push(t) {
		if q.rewindScore >= rewindStormScore {
			q.fallBack()
		}
		return
	}
	// The resident span cannot fit even at MaxBuckets: this priority
	// distribution is not bucketable, migrate and insert into the heap.
	q.fallBack()
	q.heap.Push(t)
}

// coldBelow reports whether the cold store holds a task of Prio below p.
// The cursor is a lower bound on the resident minimum, so the common case —
// the hot front at or below the cursor — answers without a bitmap scan.
func (q *TwoLevel) coldBelow(p int64) bool {
	if q.heap != nil {
		c, ok := q.heap.Peek()
		return ok && c.Prio < p
	}
	if q.cold.size == 0 || q.cold.curQ >= p {
		return false
	}
	q.cold.advance()
	return q.cold.curQ < p
}

func (q *TwoLevel) coldPeek() (task.Task, bool) {
	if q.heap != nil {
		return q.heap.Peek()
	}
	if q.cold.size > 0 {
		return q.cold.peek(), true
	}
	return task.Task{}, false
}

func (q *TwoLevel) coldPop() task.Task {
	if q.heap != nil {
		t, _ := q.heap.Pop()
		return t
	}
	return q.cold.pop()
}

// fallBack migrates the bucket ring's contents into a fresh d-ary heap and
// retires the ring. One-way: a stream that proved non-monotone once is
// assumed to stay that way (the hot buffer still serves the cache-resident
// front either way).
func (q *TwoLevel) fallBack() {
	q.stats.Fallbacks++
	h := NewDHeap(q.arity, q.cold.size+64)
	for i := range q.cold.buckets {
		b := &q.cold.buckets[i]
		for _, t := range b.tasks[b.head:] {
			h.Push(t)
		}
	}
	q.cold = coldBuckets{}
	q.heap = h
}

// bucket is one priority's FIFO: tasks[head:] are resident, in push order.
// An empty bucket has head 0 and len(tasks) 0.
type bucket struct {
	tasks []task.Task
	head  int
}

// coldBuckets is the monotone radix level: a power-of-two ring of
// per-priority FIFO buckets plus an occupancy bitmap the scan cursor
// advances over. Buckets hold exactly one Prio each, so no comparison is
// ever made inside one.
//
// Invariant: while size > 0, every resident priority lies in
// [curQ, curQ+W) with curQ <= the resident minimum and hiQ an upper bound
// on the resident maximum — ring index prio & (W-1) is then collision-free
// (two's-complement AND handles negative priorities). A push stretching the
// span doubles W up to maxW; beyond that push reports false and the caller
// falls back to a comparison heap.
type coldBuckets struct {
	buckets []bucket
	occ     []uint64
	// free recycles the storage of emptied buckets, and arena seeds fresh
	// ones: new buckets are carved bucketSeedCap entries at a time out of a
	// shared slab, so filling the ring costs one allocation per slab-worth
	// of buckets instead of one per bucket. Only a bucket that outgrows its
	// seed capacity pays an append-grow of its own, which the freelist then
	// keeps recycling. Together they take the bucket store's allocation
	// count from O(distinct resident priorities) to O(slabs).
	free  [][]task.Task
	arena []task.Task
	curQ  int64 // scan cursor: lower bound on the resident minimum
	hiQ   int64 // upper bound on the resident maximum
	size  int
	maxW  int
}

func (c *coldBuckets) init(w, maxW int) {
	c.buckets = make([]bucket, w)
	c.occ = make([]uint64, w/64)
	c.maxW = maxW
}

// push appends t to its priority's bucket, growing the ring if the resident
// span demands it. False means the span cannot fit at maxW.
func (c *coldBuckets) push(t task.Task) bool {
	p := t.Prio
	if c.size == 0 {
		c.curQ, c.hiQ = p, p
	} else {
		lo, hi := c.curQ, c.hiQ
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
		for uint64(hi-lo) >= uint64(len(c.buckets)) {
			if len(c.buckets)*2 > c.maxW {
				return false
			}
			c.grow()
		}
		c.curQ, c.hiQ = lo, hi
	}
	idx := int(p & int64(len(c.buckets)-1))
	b := &c.buckets[idx]
	switch {
	case b.tasks == nil:
		if n := len(c.free); n > 0 {
			b.tasks = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			if len(c.arena) < bucketSeedCap {
				c.arena = make([]task.Task, bucketSlabLen)
			}
			b.tasks = c.arena[:0:bucketSeedCap]
			c.arena = c.arena[bucketSeedCap:]
		}
	case len(b.tasks) == cap(b.tasks) && 2*b.head >= len(b.tasks):
		// Pushed to while it drains: once at least half the slice is
		// popped-over prefix, slide the live tail down instead of growing.
		// Each slide moves no more tasks than were popped since the last,
		// and a steady stream keeps cap within a small multiple of the
		// bucket's live length.
		n := copy(b.tasks, b.tasks[b.head:])
		b.tasks = b.tasks[:n]
		b.head = 0
	}
	b.tasks = append(b.tasks, t)
	c.occ[idx>>6] |= 1 << uint(idx&63)
	c.size++
	return true
}

// grow doubles the ring, re-placing occupied buckets under the wider mask.
// Bucket indices are reconstructed from the cursor: every resident q is
// curQ + (its ring distance from curQ's slot), unique because the old span
// fit the old width.
func (c *coldBuckets) grow() {
	oldW := len(c.buckets)
	newW := oldW * 2
	nb := make([]bucket, newW)
	nocc := make([]uint64, newW/64)
	if c.size > 0 {
		baseIdx := int(c.curQ & int64(oldW-1))
		for step := 0; step < oldW; step++ {
			idx := (baseIdx + step) & (oldW - 1)
			b := c.buckets[idx]
			if len(b.tasks) == 0 {
				// Parked capacity has no index in the wider ring yet;
				// salvage it through the freelist.
				if cap(b.tasks) > 0 && len(c.free) < bucketFreeMax {
					c.free = append(c.free, b.tasks)
				}
				continue
			}
			q := c.curQ + int64(step)
			nidx := int(q & int64(newW-1))
			nb[nidx] = b
			nocc[nidx>>6] |= 1 << uint(nidx&63)
		}
	}
	c.buckets = nb
	c.occ = nocc
}

// advance moves the cursor to the first occupied bucket at or above it,
// scanning the occupancy bitmap a word at a time. Caller guarantees
// size > 0, so an occupied bucket exists within one lap of the ring.
func (c *coldBuckets) advance() {
	w := len(c.buckets)
	idx := int(c.curQ & int64(w-1))
	for steps := 0; steps < w; {
		word := c.occ[idx>>6] >> uint(idx&63)
		if word != 0 {
			c.curQ += int64(steps + bits.TrailingZeros64(word))
			return
		}
		adv := 64 - (idx & 63)
		steps += adv
		idx = (idx + adv) & (w - 1)
	}
}

// peek returns the oldest task of the minimum resident priority. Caller
// guarantees size > 0.
func (c *coldBuckets) peek() task.Task {
	c.advance()
	b := &c.buckets[int(c.curQ&int64(len(c.buckets)-1))]
	return b.tasks[b.head]
}

// pop removes and returns the oldest task of the minimum resident priority.
// Caller guarantees size > 0.
func (c *coldBuckets) pop() task.Task {
	c.advance()
	idx := int(c.curQ & int64(len(c.buckets)-1))
	b := &c.buckets[idx]
	t := b.tasks[b.head]
	b.head++
	c.size--
	if b.head == len(b.tasks) {
		// Drained: big slices chase the frontier via the freelist, small
		// ones wait in place for a priority to wrap back onto this index.
		b.head = 0
		if cap(b.tasks) >= bucketBigCap && len(c.free) < bucketFreeMax {
			c.free = append(c.free, b.tasks[:0])
			b.tasks = nil
		} else {
			b.tasks = b.tasks[:0]
		}
		c.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	return t
}
