package pq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdcps/internal/task"
)

// prioRef shadows a TwoLevel with a reference binary heap under the
// priority-exact contract: every pop must return the reference minimum's
// Prio (equal-Prio tasks may come out in any order), and the multiset of
// popped tasks — Node, Prio and Data — must equal the multiset pushed.
type prioRef struct {
	t      *testing.T
	name   string
	ref    *BinaryHeap
	pushed map[task.Task]int
	popped map[task.Task]int
}

func newPrioRef(t *testing.T, name string) *prioRef {
	return &prioRef{t: t, name: name, ref: NewBinaryHeap(0),
		pushed: map[task.Task]int{}, popped: map[task.Task]int{}}
}

func (r *prioRef) push(tk task.Task) {
	r.ref.Push(tk)
	r.pushed[tk]++
}

// pop checks one pop of the queue under test against the reference and
// reports false (after logging) on a divergence.
func (r *prioRef) pop(have task.Task, hok bool) bool {
	r.t.Helper()
	want, wok := r.ref.Pop()
	if hok != wok || (wok && have.Prio != want.Prio) {
		r.t.Logf("%s: pop = %+v/%v, want prio %d/%v", r.name, have, hok, want.Prio, wok)
		return false
	}
	if hok {
		r.popped[have]++
	}
	return true
}

// drain pops q to exhaustion against the reference, then checks the
// multisets.
func (r *prioRef) drain(q Queue) bool {
	r.t.Helper()
	for {
		have, ok := q.Pop()
		if !r.pop(have, ok) {
			return false
		}
		if !ok {
			return r.conserved() && q.Len() == 0
		}
	}
}

// conserved reports whether everything pushed was popped exactly once.
func (r *prioRef) conserved() bool {
	r.t.Helper()
	if len(r.pushed) != len(r.popped) {
		r.t.Logf("%s: %d distinct tasks pushed, %d popped", r.name, len(r.pushed), len(r.popped))
		return false
	}
	for tk, n := range r.pushed {
		if r.popped[tk] != n {
			r.t.Logf("%s: task %+v pushed %d times, popped %d", r.name, tk, n, r.popped[tk])
			return false
		}
	}
	return true
}

// TestTwoLevelExactOrderMonotone pins the priority-exact contract on the
// traffic the bucket store is built for: a delta-stepping-like monotone
// stream, tie-heavy like a wavefront, must pop the reference heap's Prio at
// every pop and lose nothing, with the cold store never falling back.
func TestTwoLevelExactOrderMonotone(t *testing.T) {
	q := NewTwoLevel(TwoLevelConfig{HotCap: 8})
	r := newPrioRef(t, "monotone")
	rng := rand.New(rand.NewSource(7))
	push := func(tk task.Task) { q.Push(tk); r.push(tk) }
	push(task.Task{Node: 0, Prio: 0})
	floor := int64(0)
	for i := 1; i <= 5000 && r.ref.Len() > 0; i++ {
		have, ok := q.Pop()
		if !r.pop(have, ok) {
			t.Fatalf("pop %d diverged", i)
		}
		if have.Prio < floor {
			t.Fatalf("pop %d went backwards: %d after %d", i, have.Prio, floor)
		}
		floor = have.Prio
		if i < 2000 {
			// Children at or above the parent's priority: the monotone
			// case, with a narrow spread so most pushes tie.
			for c := 0; c < 1+rng.Intn(3); c++ {
				push(task.Task{Node: uint32(rng.Intn(512)), Prio: floor + int64(rng.Intn(4)), Data: uint64(i)})
			}
		}
	}
	if got := q.Stats().Fallbacks; got != 0 {
		t.Fatalf("monotone stream tripped the fallback detector (%d)", got)
	}
	if q.Stats().Spills == 0 {
		t.Fatal("an 8-entry hot buffer under thousands of pushes must spill")
	}
	if !r.drain(q) {
		t.Fatal("monotone tail diverged")
	}
}

// TestTwoLevelConservationRandom is the no-loss/no-duplication property
// test: under arbitrary (non-monotone, negative, colliding) priorities, and
// again with priorities squeezed into 0..15 so that ties are the common
// case, every interleaved Pop/PopEx and every drain pop returns the
// reference minimum's Prio, and the popped multiset equals the pushed one,
// across several adversarial configurations.
func TestTwoLevelConservationRandom(t *testing.T) {
	cfgs := map[string]TwoLevelConfig{
		"default":   {},
		"tiny-hot":  {HotCap: 1},
		"small-hot": {HotCap: 8},
		"tiny-ring": {HotCap: 4, MaxBuckets: 64},
	}
	draws := map[string]func(int16) int64{
		"wide":   func(p int16) int64 { return int64(p) },
		"narrow": func(p int16) int64 { return int64(p) & 15 },
	}
	for name, cfg := range cfgs {
		for dname, draw := range draws {
			name, cfg, draw := name+"/"+dname, cfg, draw
			err := quick.Check(func(raw []int16, popBits []bool) bool {
				q := NewTwoLevel(cfg)
				r := newPrioRef(t, name)
				for i, p := range raw {
					// Nodes collide too: identity is the whole task.
					tk := task.Task{Node: uint32(i % 5), Prio: draw(p), Data: uint64(i)}
					q.Push(tk)
					r.push(tk)
					// Interleave pops driven by the fuzzed schedule so the
					// cursor rewinds and refills under partial drain; odd
					// steps take the no-refill PopEx path.
					if i < len(popBits) && popBits[i] {
						var have task.Task
						var ok bool
						if i%2 == 0 {
							have, ok = q.Pop()
						} else {
							have, _, ok = q.PopEx()
						}
						if !r.pop(have, ok) {
							return false
						}
					}
				}
				return r.drain(q)
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestTwoLevelFallback drives the two non-monotone detectors: a strictly
// decreasing stream (every cold push rewinds the cursor) and a priority
// span wider than MaxBuckets. Both must migrate to the heap exactly once
// and stay priority-exact and lossless.
func TestTwoLevelFallback(t *testing.T) {
	t.Run("rewind-storm", func(t *testing.T) {
		q := NewTwoLevel(TwoLevelConfig{HotCap: 4})
		r := newPrioRef(t, "rewind-storm")
		for i := 0; i < 512; i++ {
			// Pairs of equal priorities keep ties on both sides of the
			// migration.
			tk := task.Task{Node: uint32(i), Prio: int64(-i / 2)}
			q.Push(tk)
			r.push(tk)
		}
		if got := q.Stats().Fallbacks; got != 1 {
			t.Fatalf("Fallbacks = %d, want 1 (rewinds %d)", got, q.Stats().Rewinds)
		}
		if !r.drain(q) {
			t.Fatal("drain diverged")
		}
	})
	t.Run("span-overflow", func(t *testing.T) {
		q := NewTwoLevel(TwoLevelConfig{HotCap: 1, MaxBuckets: 64})
		r := newPrioRef(t, "span-overflow")
		// Ascending but exponentially sparse: monotone, yet the resident
		// span blows past any bucket ring.
		for i := 0; i < 40; i++ {
			tk := task.Task{Node: uint32(i), Prio: int64(1) << uint(i/2)}
			q.Push(tk)
			r.push(tk)
		}
		if got := q.Stats().Fallbacks; got != 1 {
			t.Fatalf("Fallbacks = %d, want 1", got)
		}
		if !r.drain(q) {
			t.Fatal("drain diverged")
		}
	})
}

// TestTwoLevelHotEviction checks the hPQ residency invariant against
// pq.Bounded's semantics, compared on Prio: with PopEx (no refill), the hot
// buffer always holds HotCap tasks of the lowest resident priorities, and
// every pop's Prio and provenance match the reference composition. The
// narrow priority range makes evictions and hot/cold ties frequent.
func TestTwoLevelHotEviction(t *testing.T) {
	const capacity = 8
	q := NewTwoLevel(TwoLevelConfig{HotCap: capacity})
	b := NewBounded(capacity)
	sw := NewBinaryHeap(0)
	r := newPrioRef(t, "hot-eviction")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4096; i++ {
		tk := task.Task{Node: uint32(i), Prio: int64(rng.Intn(64))}
		q.Push(tk)
		r.push(tk)
		if ev, spilled := b.Push(tk); spilled {
			sw.Push(ev)
		}
		if rng.Intn(3) == 0 {
			// Reference composition: pop the better of hPQ front and
			// software heap front, like the simulator's dequeue; the hPQ
			// wins a Prio tie.
			hw, hok := b.Peek()
			s, sok := sw.Peek()
			var want task.Task
			var wantHot bool
			switch {
			case hok && (!sok || hw.Prio <= s.Prio):
				want, _ = b.Pop()
				wantHot = true
			case sok:
				want, _ = sw.Pop()
			}
			have, fromHot, ok := q.PopEx()
			if !ok || have.Prio != want.Prio || fromHot != wantHot {
				t.Fatalf("push %d: PopEx = %+v hot=%v, want prio %d hot=%v",
					i, have, fromHot, want.Prio, wantHot)
			}
			if !r.pop(have, ok) {
				t.Fatalf("push %d: PopEx diverged from the reference heap", i)
			}
		}
	}
	if hl := q.HotLen(); hl != capacity {
		t.Fatalf("HotLen = %d, want %d", hl, capacity)
	}
	if q.Len() != q.HotLen()+q.ColdLen() {
		t.Fatalf("Len %d != HotLen %d + ColdLen %d", q.Len(), q.HotLen(), q.ColdLen())
	}
	if !r.drain(q) {
		t.Fatal("drain diverged")
	}
}

// TestTwoLevelPushCold pins the simulator's bypass path: cold-pushed tasks
// never enter the hot buffer, yet Pop stays priority-exact.
func TestTwoLevelPushCold(t *testing.T) {
	q := NewTwoLevel(TwoLevelConfig{HotCap: 4})
	r := newPrioRef(t, "push-cold")
	for i := 0; i < 100; i++ {
		tk := task.Task{Node: uint32(i), Prio: int64((i * 37) % 50)}
		q.PushCold(tk)
		r.push(tk)
	}
	if got := q.HotLen(); got != 0 {
		t.Fatalf("PushCold leaked %d tasks into the hot buffer", got)
	}
	if got := q.ColdLen(); got != 100 {
		t.Fatalf("ColdLen = %d, want 100", got)
	}
	if !r.drain(q) {
		t.Fatal("drain diverged")
	}
	if q.Stats().Refills == 0 {
		t.Fatal("draining a cold-only queue via Pop must refill the hot buffer")
	}
}

// TestTwoLevelTieBurstFIFO: a single-Prio burst larger than the hot buffer,
// with no pops in between, fills the hot buffer and spills the rest into
// one cold bucket — and must come back out in push order through both the
// refilling Pop and the provenance-preserving PopEx.
func TestTwoLevelTieBurstFIFO(t *testing.T) {
	const hotCap, burst = 4, 4*4 + 3
	pops := map[string]func(q *TwoLevel) (task.Task, bool){
		"Pop": func(q *TwoLevel) (task.Task, bool) { return q.Pop() },
		"PopEx": func(q *TwoLevel) (task.Task, bool) {
			tk, _, ok := q.PopEx()
			return tk, ok
		},
	}
	for name, pop := range pops {
		q := NewTwoLevel(TwoLevelConfig{HotCap: hotCap})
		for i := 0; i < burst; i++ {
			// Descending Nodes: a (Prio, Node) order would reverse them.
			q.Push(task.Task{Node: uint32(burst - i), Prio: 9, Data: uint64(i)})
		}
		if got := q.ColdLen(); got != burst-hotCap {
			t.Fatalf("%s: ColdLen = %d, want %d", name, got, burst-hotCap)
		}
		for i := 0; i < burst; i++ {
			tk, ok := pop(q)
			if !ok || tk.Data != uint64(i) {
				t.Fatalf("%s: pop %d = %+v/%v, want push #%d", name, i, tk, ok, i)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("%s: Len = %d after draining the burst", name, q.Len())
		}
	}
}

// TestTwoLevelSteadyBucketBounded runs a long steady push/pop stream at one
// priority through the cold store: the bucket is pushed to while it drains
// for the whole run, so it must recycle its popped prefix rather than grow
// without bound, while still serving the stream in push order.
func TestTwoLevelSteadyBucketBounded(t *testing.T) {
	const hotCap, backlog, steps = 4, 1000, 200000
	const prio = 5
	q := NewTwoLevel(TwoLevelConfig{HotCap: hotCap})
	next := uint64(0)
	push := func() {
		q.PushCold(task.Task{Node: uint32(next % 7), Prio: prio, Data: next})
		next++
	}
	for i := 0; i < backlog; i++ {
		push()
	}
	want := uint64(0)
	maxCap := 0
	for i := 0; i < steps; i++ {
		push()
		tk, ok := q.Pop()
		if !ok || tk.Data != want {
			t.Fatalf("step %d: pop = %+v/%v, want push #%d", i, tk, ok, want)
		}
		want++
		b := &q.cold.buckets[prio&(len(q.cold.buckets)-1)]
		if c := cap(b.tasks); c > maxCap {
			maxCap = c
		}
	}
	if q.Len() != backlog {
		t.Fatalf("Len = %d, want %d", q.Len(), backlog)
	}
	if limit := 4 * (backlog + hotCap); maxCap > limit {
		t.Fatalf("bucket cap reached %d over a steady %d-task stream, want <= %d", maxCap, backlog, limit)
	}
}

// FuzzTwoLevelVsBinaryHeap feeds a byte-driven op stream (push with varied
// priority deltas, pop, cold-push) to the two-level queue and the reference
// heap and requires the same Prio at every pop, the same length after every
// op, and the same multiset at the end.
func FuzzTwoLevelVsBinaryHeap(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0xff, 0x00, 0x7f})
	f.Add([]byte("monotone-ish stream 0123456789"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x10, 0x10, 0x10, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewTwoLevel(TwoLevelConfig{HotCap: 3, MaxBuckets: 64})
		r := newPrioRef(t, "fuzz")
		prio := int64(0)
		for i, op := range data {
			switch op % 4 {
			case 0: // pop
				have, ok := q.Pop()
				if !r.pop(have, ok) {
					t.Fatalf("op %d: pop diverged", i)
				}
			case 1, 2: // push with a signed priority delta
				prio += int64(int8(op)) * int64(1+op%5)
				tk := task.Task{Node: uint32(i), Prio: prio}
				q.Push(tk)
				r.push(tk)
			case 3: // cold-path push
				tk := task.Task{Node: uint32(i), Prio: prio - int64(op>>2)}
				q.PushCold(tk)
				r.push(tk)
			}
			if q.Len() != r.ref.Len() {
				t.Fatalf("op %d: Len = %d, reference %d", i, q.Len(), r.ref.Len())
			}
		}
		if !r.drain(q) {
			t.Fatal("fuzz drain diverged")
		}
	})
}

// BenchmarkQueueDist measures the queue shapes under the three adversarial
// priority distributions of the tentpole: flat (every push collides into
// few buckets), power-law (skewed like web-graph residuals), and strictly
// increasing (the pure monotone case the bucket store is built for).
func BenchmarkQueueDist(b *testing.B) {
	dists := []struct {
		name string
		prio func(i int, rng *rand.Rand) int64
	}{
		{"flat", func(i int, rng *rand.Rand) int64 { return int64(rng.Intn(64)) }},
		{"powerlaw", func(i int, rng *rand.Rand) int64 {
			return int64(1<<uint(rng.Intn(14))) + int64(rng.Intn(16))
		}},
		{"increasing", func(i int, rng *rand.Rand) int64 { return int64(i) }},
	}
	shapes := []struct {
		name string
		mk   func() Queue
	}{
		{"binary", func() Queue { return NewBinaryHeap(1024) }},
		{"4-ary", func() Queue { return NewQuadHeap(1024) }},
		{"twolevel", func() Queue { return NewTwoLevel(TwoLevelConfig{}) }},
		{"multiqueue", func() Queue { return NewMultiQueue(MultiQueueConfig{Workers: 1}).Handle() }},
	}
	for _, d := range dists {
		for _, s := range shapes {
			b.Run(d.name+"/"+s.name, func(b *testing.B) {
				q := s.mk()
				rng := rand.New(rand.NewSource(42))
				// Pre-fill to the native runtime's steady-state depth.
				for i := 0; i < 1024; i++ {
					q.Push(task.Task{Node: uint32(i), Prio: d.prio(i, rng)})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.Push(task.Task{Node: uint32(i), Prio: d.prio(i+1024, rng)})
					q.Pop()
				}
			})
		}
	}
}
