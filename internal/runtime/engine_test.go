package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// Submit-while-running: a drained (parked) fleet must wake on Submit and
// reach quiescence again, every time — the lost-wakeup regression test for
// the park/wake handshake.
func TestEngineSubmitWhileRunning(t *testing.T) {
	g := graph.Road(16, 16, 3)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(4))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	initial := w.InitialTasks()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := e.Submit(initial...); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	snap := e.Snapshot()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != rounds {
		t.Errorf("epoch %d, want %d", snap.Epoch, rounds)
	}
	if snap.Outstanding != 0 {
		t.Errorf("outstanding %d after drain", snap.Outstanding)
	}
	res := e.Result()
	if res.TasksProcessed <= 0 {
		t.Fatal("no tasks processed")
	}
	var parks int64
	for _, ws := range e.Snapshot().Workers {
		parks += ws.IdleParks
	}
	if parks == 0 {
		t.Error("fleet never parked across 50 drain cycles")
	}
}

// A single-worker engine exercises the park/wake path hardest: every drain
// parks the only worker, and every submit must wake it.
func TestEngineSingleWorkerSubmitCycles(t *testing.T) {
	g := graph.Road(10, 10, 7)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{Workers: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	initial := w.InitialTasks()
	for i := 0; i < 200; i++ {
		if err := e.Submit(initial...); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Stop with an already-cancelled context must return promptly with the
// context's error while the fleet winds down in the background.
func TestEngineStopCancelledContext(t *testing.T) {
	g := graph.Road(64, 64, 7)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(2))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := e.Stop(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stop(cancelled) = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Stop(cancelled) took %v, want prompt return", d)
	}
	// A second Stop with a live context joins the winding-down fleet.
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	// Work was abandoned mid-run: Submit and Drain must now refuse.
	if err := e.Submit(w.InitialTasks()...); err != ErrStopped {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
}

// Concurrent Submit from many goroutines racing the draining workers; run
// under -race this is the lifecycle's data-race hammer.
func TestEngineConcurrentSubmit(t *testing.T) {
	g := graph.Road(12, 12, 5)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(3))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	initial := w.InitialTasks()
	const submitters = 8
	const perSubmitter = 100
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if err := e.Submit(initial...); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	res := e.Result()
	// Every submitted instance of the seed task must have been processed.
	if min := int64(submitters * perSubmitter * len(initial)); res.TasksProcessed < min {
		t.Fatalf("processed %d tasks, want >= %d", res.TasksProcessed, min)
	}
	if got := e.Snapshot().Epoch; got != submitters*perSubmitter {
		t.Fatalf("epoch %d, want %d", got, submitters*perSubmitter)
	}
}

// Snapshot must be readable while workers are mid-run and must agree with
// Result once the engine has stopped.
func TestEngineSnapshot(t *testing.T) {
	g := graph.Road(32, 32, 9)
	w, err := workload.New("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.RingSize = 8 // force overflow spills so the counter moves
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var live Snapshot
	for {
		live = e.Snapshot()
		if live.TasksProcessed > 0 || time.Now().After(deadline) {
			break
		}
	}
	if live.TasksProcessed <= 0 {
		t.Fatal("snapshot never observed progress")
	}
	if len(live.Workers) != 4 {
		t.Fatalf("snapshot has %d workers, want 4", len(live.Workers))
	}
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	final := e.Snapshot()
	res := e.Result()
	if final.TasksProcessed != res.TasksProcessed {
		t.Errorf("snapshot tasks %d != result tasks %d", final.TasksProcessed, res.TasksProcessed)
	}
	if final.BagsCreated != res.BagsCreated {
		t.Errorf("snapshot bags %d != result bags %d", final.BagsCreated, res.BagsCreated)
	}
	if final.EdgesExamined != res.EdgesExamined || res.EdgesExamined <= 0 {
		t.Errorf("edges: snapshot %d, result %d", final.EdgesExamined, res.EdgesExamined)
	}
	var spills int64
	for _, ws := range final.Workers {
		spills += ws.OverflowSpills
	}
	if spills == 0 {
		t.Error("8-slot rings under pagerank never spilled to overflow")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Drain must honor context cancellation when quiescence is not reached.
func TestEngineDrainCancelled(t *testing.T) {
	g := graph.Road(64, 64, 11)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(2))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The run may legitimately finish inside Drain's spin phase on a fast
	// machine (nil); anything other than that or Canceled is a bug.
	if err := e.Drain(cancelled); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain(cancelled) = %v", err)
	}
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	g := graph.Road(8, 8, 1)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("second Start must error")
	}
	ctx := testCtx(t)
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("repeated Stop must be idempotent, got %v", err)
	}

	// A never-started engine stops cleanly.
	e2 := NewEngine(w.Clone(), Config{Workers: 2})
	if err := e2.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e2.Submit(w.InitialTasks()...); err != ErrStopped {
		t.Fatalf("Submit on stopped engine = %v, want ErrStopped", err)
	}
}

// fanWorkload is a bounded fan-out tree: every task above depth emits fanout
// children one level down (Node carries the level). Deeper tasks rank
// first, so the tree runs depth-first and children — often on a peer —
// retire while their parent's siblings still wait. check, when set, runs
// inside Process, while the task itself still counts as outstanding.
type fanWorkload struct {
	fanout, depth int
	check         func(task.Task)
}

func (w *fanWorkload) Name() string              { return "fan" }
func (w *fanWorkload) Graph() *graph.CSR         { return nil }
func (w *fanWorkload) Reset()                    {}
func (w *fanWorkload) InitialTasks() []task.Task { return nil }
func (w *fanWorkload) Clone() workload.Workload  { return w }
func (w *fanWorkload) Verify() error             { return nil }

func (w *fanWorkload) Process(t task.Task, emit func(task.Task)) int {
	if w.check != nil {
		w.check(t)
	}
	if int(t.Node) < w.depth {
		for i := 0; i < w.fanout; i++ {
			emit(task.Task{Node: t.Node + 1, Prio: -int64(t.Node) - 1})
		}
	}
	return 1
}

// TestOutstandingCoversRunningTasks pins the termination invariant under
// spawn credit: a running task is outstanding, so while its Process runs
// both the engine's and its job's outstanding counts must read at least 1 —
// even when every task spawns more children than a settle interval's
// reserve covers, which forces the worker to top the shared counts up
// before the children become visible.
func TestOutstandingCoversRunningTasks(t *testing.T) {
	const flush = 32
	for _, kind := range QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			var e *Engine
			var jobs [2]*Job
			var checked, engineLow, jobLow atomic.Int64
			w := &fanWorkload{fanout: flush + 8, depth: 2, check: func(tk task.Task) {
				checked.Add(1)
				if e.Outstanding() < 1 {
					engineLow.Add(1)
				}
				if jobs[tk.Job].Snapshot().Outstanding < 1 {
					jobLow.Add(1)
				}
			}}
			e = NewEngine(w, Config{Workers: 4, QueueKind: kind, FlushInterval: flush})
			jobs[0] = e.DefaultJob()
			var err error
			if jobs[1], err = e.NewJob(w, JobConfig{Name: "second"}); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			ctx := testCtx(t)
			for round := 0; round < 10; round++ {
				for _, j := range jobs {
					if err := j.Submit(make([]task.Task, 1)...); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Drain(ctx); err != nil {
					t.Fatal(err)
				}
				checkLedger(t, e.Snapshot())
				checkJobLedgers(t, e.Snapshot())
			}
			if err := e.Stop(ctx); err != nil {
				t.Fatal(err)
			}
			// 10 rounds x 2 jobs x one root, each a tree of 1 + 40 + 40^2 tasks.
			if got, want := checked.Load(), int64(10*2*(1+40+40*40)); got != want {
				t.Fatalf("checked %d running tasks, want %d", got, want)
			}
			if n := engineLow.Load(); n > 0 {
				t.Errorf("%d running tasks saw Engine.Outstanding() < 1", n)
			}
			if n := jobLow.Load(); n > 0 {
				t.Errorf("%d running tasks saw their job's outstanding < 1", n)
			}
		})
	}
}

// The supply guard's input: a worker's idle flag is set when it runs out of
// local work while tasks are outstanding elsewhere, cleared by its next
// non-empty fill, and left clear by a park on a quiescent fleet.
func TestIdleFlagLifecycle(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan graph.NodeID, 4)
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node != 2 {
			started <- tk.Node
			<-gate
		}
		return 1
	}}
	e := NewEngine(w, Config{Workers: 2, UseTDF: true})
	flags := func() [2]bool {
		return [2]bool{e.control.idle[0].v.Load(), e.control.idle[1].v.Load()}
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (flags %v)", what, flags())
			}
		}
	}
	bothParked := func() bool { return e.workers[0].parked.Load() && e.workers[1].parked.Load() }
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// Nothing outstanding: both workers park with their flags clear.
	waitFor("quiescent park", bothParked)
	if f := flags(); f != [2]bool{} {
		t.Fatalf("flags %v on a quiescent fleet, want both clear", f)
	}

	// Submit round-robins from worker 0: node 1 blocks worker 0, so worker 1
	// idles with a task outstanding and raises its flag.
	if err := e.Submit(task.Task{Node: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	waitFor("worker 1 to starve", func() bool { return flags() == [2]bool{false, true} })

	// Node 3 lands on worker 1: the fill that takes it clears the flag
	// before the task runs.
	if err := e.Submit(task.Task{Node: 2}, task.Task{Node: 3}); err != nil {
		t.Fatal(err)
	}
	<-started
	if f := flags(); f[1] {
		t.Fatalf("flags %v while worker 1 runs a task, want its flag clear", f)
	}

	close(gate)
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	waitFor("park after drain", bothParked)
	if f := flags(); f != [2]bool{} {
		t.Fatalf("flags %v after a quiescent park, want both clear", f)
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}
