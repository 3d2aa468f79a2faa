package runtime

// Tests for the job layer (PR 7): weighted fair scheduling, admission
// quotas, job-scoped cancel/drain, per-job conservation ledgers, and the
// job-aware stall diagnostics. The fairness test is the load-bearing one —
// it pins the deficit-round-robin contract (task shares track weight shares
// for backlogged tenants) with synthetic tenants whose backlog is constant
// by construction, so any disproportion is the scheduler's fault, not the
// workload's supply.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// steadyWorkload keeps a constant backlog: every processed task emits one
// child at the same priority until the job is told to stop. The live task
// population therefore never moves from its seeded size, which makes every
// tenant permanently backlogged — the regime where deficit round robin owes
// exact weight proportionality.
type steadyWorkload struct {
	stop atomic.Bool
}

func (w *steadyWorkload) Name() string              { return "steady" }
func (w *steadyWorkload) Graph() *graph.CSR         { return nil }
func (w *steadyWorkload) Reset()                    {}
func (w *steadyWorkload) InitialTasks() []task.Task { return nil }
func (w *steadyWorkload) Clone() workload.Workload  { return w }
func (w *steadyWorkload) Verify() error             { return nil }

func (w *steadyWorkload) Process(t task.Task, emit func(task.Task)) int {
	if !w.stop.Load() {
		emit(task.Task{Node: t.Node, Prio: t.Prio})
	}
	return 1
}

func seedTasks(n int) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = task.Task{Node: graph.NodeID(i), Prio: int64(i % 64)}
	}
	return ts
}

// TestJobWeightedFairness pins the deficit-round-robin contract: three
// tenants pre-seeded with deep open-loop backlogs and weights 4:2:1 must
// observe processed task shares within 10% of 4/7, 2/7, 1/7 over the
// measurement window. The backlog must be open-loop (independent tasks
// seeded up front): a closed loop whose tasks respawn themselves has a
// constant population, so throughput is arrival-limited and the
// work-conserving scheduler legitimately equalizes it regardless of
// weight — weights govern backlogged tenants only.
func TestJobWeightedFairness(t *testing.T) {
	weights := []int{4, 2, 1}
	leaf := func(tk task.Task, emit func(task.Task)) int { return 1 }
	const backlog = 300_000
	cfg := Config{Workers: 4, Seed: 7, DefaultJob: JobConfig{Weight: weights[0]}}
	e := NewEngine(&fnWorkload{fn: leaf}, cfg)
	jobs := []*Job{e.DefaultJob()}
	for i := 1; i < len(weights); i++ {
		j, err := e.NewJob(&fnWorkload{fn: leaf}, JobConfig{Weight: weights[i]})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Submit(seedTasks(backlog)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// Skip the ramp, then measure the contention window as a snapshot delta.
	// The window ends well before job 0 (the fastest) drains its backlog, so
	// every tenant is backlogged throughout.
	waitProcessed := func(job int, min int64) Snapshot {
		deadline := time.Now().Add(60 * time.Second)
		for {
			s := e.Snapshot()
			if s.Jobs[job].Processed >= min {
				return s
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never reached %d processed (at %d)", job, min, s.Jobs[job].Processed)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	first := waitProcessed(0, 20_000)
	last := waitProcessed(0, 220_000)

	var total int64
	deltas := make([]int64, len(jobs))
	for i := range jobs {
		deltas[i] = last.Jobs[i].Processed - first.Jobs[i].Processed
		total += deltas[i]
	}
	var wsum int
	for _, w := range weights {
		wsum += w
	}
	for i, w := range weights {
		got := float64(deltas[i]) / float64(total)
		want := float64(w) / float64(wsum)
		if diff := got - want; diff > 0.1*want || diff < -0.1*want {
			t.Errorf("job %d share %.4f, want %.4f ±10%% (deltas %v)", i, got, want, deltas)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s := e.Snapshot()
	checkLedger(t, s)
	checkJobLedgers(t, s)
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobBacklogSharing pins the fleet-wide half of the job scheduler: a
// worker holding none of a backlogged tenant asks a peer for part of its
// queue (balanceJobs/shareBacklog), so per-worker DRR can serve every
// tenant everywhere. Every task is seeded on worker 0 and the workload
// spawns nothing, so any task worker 1 processes was shared with it. A
// single-tenant engine never shares: there the split stays whatever
// seeding and TDF made it.
func TestJobBacklogSharing(t *testing.T) {
	leaf := func(tk task.Task, emit func(task.Task)) int { return 1 }
	for _, tc := range []struct {
		name  string
		jobs  int
		share bool
	}{
		{"one-tenant", 1, false},
		{"two-tenants", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const perJob = 50_000
			e := NewEngine(&fnWorkload{fn: leaf}, Config{Workers: 2, Seed: 7})
			for i := 1; i < tc.jobs; i++ {
				if _, err := e.NewJob(&fnWorkload{fn: leaf}, JobConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			// Seed every task onto worker 0, with the ledger entries a
			// pre-start Submit makes (submitIdle), before any worker runs.
			for _, js := range *e.jobs.Load() {
				ts := seedTasks(perJob)
				js.submitted.Add(perJob)
				js.outstanding.Add(perJob)
				e.submitted.Add(perJob)
				e.outstanding.Add(perJob)
				for _, tk := range ts {
					tk.Job = js.id
					e.push(&e.workers[0], tk)
				}
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := e.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			s := e.Snapshot()
			checkLedger(t, s)
			checkJobLedgers(t, s)
			if want := int64(tc.jobs * perJob); s.TasksProcessed != want {
				t.Fatalf("processed %d tasks, want %d", s.TasksProcessed, want)
			}
			got := s.Workers[1].Processed
			if tc.share && got == 0 {
				t.Errorf("worker 1 processed no task: nothing was shared (workers %+v)", s.Workers)
			}
			if !tc.share && got != 0 {
				t.Errorf("worker 1 processed %d tasks of a single tenant seeded on worker 0", got)
			}
			if err := e.Stop(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkJobLedgers asserts every per-job conservation row and that the rows
// partition the global ledger.
func checkJobLedgers(t *testing.T, s Snapshot) {
	t.Helper()
	var sub, sp, pr, br, qu, ca int64
	for _, j := range s.Jobs {
		if j.Outstanding != 0 {
			t.Fatalf("job %d outstanding %d at quiescence", j.Job, j.Outstanding)
		}
		in := j.Submitted + j.Spawned
		out := j.Processed + j.BagsRetired + j.Quarantined + j.CancelledTasks
		if in != out {
			t.Fatalf("job %d ledger violated: in %d != out %d (%+v)", j.Job, in, out, j)
		}
		sub += j.Submitted
		sp += j.Spawned
		pr += j.Processed
		br += j.BagsRetired
		qu += j.Quarantined
		ca += j.CancelledTasks
	}
	if sub != s.Submitted || sp != s.Spawned || pr != s.TasksProcessed ||
		br != s.BagsRetired || qu != s.Quarantined || ca != s.Cancelled {
		t.Fatalf("job rows don't partition the global ledger: sums [%d %d %d %d %d %d] vs global [%d %d %d %d %d %d]",
			sub, sp, pr, br, qu, ca,
			s.Submitted, s.Spawned, s.TasksProcessed, s.BagsRetired, s.Quarantined, s.Cancelled)
	}
}

// TestJobQuota pins admission control: a job with MaxOutstanding rejects the
// batch that would exceed it, whole, with a *QuotaError, and the rejection
// is visible in the job's stats without touching its ledger.
func TestJobQuota(t *testing.T) {
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(w, Config{Workers: 2})
	j, err := e.NewJob(w, JobConfig{Name: "quoted", MaxOutstanding: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(seedTasks(10)...); err != nil {
		t.Fatalf("submit within quota: %v", err)
	}
	err = j.Submit(seedTasks(1)...)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("submit past quota: got %v, want *QuotaError", err)
	}
	if qe.Job != j.ID() || qe.Limit != 10 {
		t.Errorf("QuotaError = %+v, want job %d limit 10", qe, j.ID())
	}
	stats := j.Snapshot()
	if stats.QuotaRejected != 1 {
		t.Errorf("QuotaRejected = %d, want 1", stats.QuotaRejected)
	}
	if stats.Submitted != 10 {
		t.Errorf("Submitted = %d, want 10 (rejected batch must not touch the ledger)", stats.Submitted)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Quota is on outstanding, not cumulative: once drained, room returns.
	if err := j.Submit(seedTasks(10)...); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkJobLedgers(t, e.Snapshot())
	_ = e.Stop(context.Background())
}

// TestJobCancel pins job-scoped cancellation: a cancelled tenant's queued
// tasks are swept into its Cancelled sink, its ledger still balances, other
// tenants are untouched, and further submits fail with ErrJobCancelled.
func TestJobCancel(t *testing.T) {
	var slow atomic.Int64
	keeper := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		slow.Add(1)
		time.Sleep(10 * time.Microsecond)
		return 1
	}}
	victim := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		time.Sleep(10 * time.Microsecond)
		return 1
	}}
	e := NewEngine(keeper, Config{Workers: 2})
	vj, err := e.NewJob(victim, JobConfig{Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(seedTasks(2000)...); err != nil {
		t.Fatal(err)
	}
	if err := vj.Submit(seedTasks(2000)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	cancelCtx, cancelDone := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDone()
	if err := vj.Cancel(cancelCtx); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if !vj.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if err := vj.Submit(seedTasks(1)...); !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("submit after cancel: got %v, want ErrJobCancelled", err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s := e.Snapshot()
	checkLedger(t, s)
	checkJobLedgers(t, s)
	vs := vj.Snapshot()
	if vs.CancelledTasks+vs.Processed != 2000 {
		t.Errorf("victim cancelled %d + processed %d != 2000", vs.CancelledTasks, vs.Processed)
	}
	ks := s.Jobs[0]
	if ks.Processed != 2000 || ks.CancelledTasks != 0 {
		t.Errorf("keeper processed %d cancelled %d, want 2000/0 (other tenants must be untouched)",
			ks.Processed, ks.CancelledTasks)
	}
	_ = e.Stop(context.Background())
}

// TestJobScopedDrain pins that Job.Drain waits for ONE tenant's quiescence
// while another tenant still has work in flight.
func TestJobScopedDrain(t *testing.T) {
	storm := &steadyWorkload{}
	quick := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(storm, Config{Workers: 2})
	qj, err := e.NewJob(quick, JobConfig{Name: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(seedTasks(256)...); err != nil {
		t.Fatal(err)
	}
	if err := qj.Submit(seedTasks(512)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := qj.Drain(ctx); err != nil {
		t.Fatalf("job-scoped drain: %v", err)
	}
	qs := qj.Snapshot()
	if qs.Outstanding != 0 || qs.Processed != 512 {
		t.Errorf("quick job after Drain: outstanding %d processed %d, want 0/512", qs.Outstanding, qs.Processed)
	}
	if s := e.Snapshot(); s.Jobs[0].Outstanding == 0 {
		t.Error("storm tenant quiesced during the other job's Drain — job scoping is leaking")
	}
	storm.stop.Store(true)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkJobLedgers(t, e.Snapshot())
	_ = e.Stop(context.Background())
}

// TestJobDrainNotHeldByBusyTenant pins that a worker's spawn reserve for a
// job is released on the settle cadence, not only when the worker idles: a
// small fan-out tenant's Drain must return while a closed-loop tenant keeps
// every worker busy and still has work outstanding. Both tenants scale the
// fixed 1% TDF by a 1% bias to an effective 0, so every child stays on its
// parent's worker and no worker runs dry waiting on a peer's buffers.
func TestJobDrainNotHeldByBusyTenant(t *testing.T) {
	storm := &steadyWorkload{}
	local := JobConfig{Name: "storm", TDFBias: 1}
	e := NewEngine(storm, Config{Workers: 4, FixedTDF: 1, DefaultJob: local})
	local.Name = "small"
	small, err := e.NewJob(&fanWorkload{fanout: 8, depth: 2}, local)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(seedTasks(512)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 20; round++ {
		if err := small.Submit(make([]task.Task, 8)...); err != nil {
			t.Fatal(err)
		}
		if err := small.Drain(ctx); err != nil {
			t.Fatalf("round %d: small tenant's Drain held by the busy one: %v", round, err)
		}
		if s := small.Snapshot(); s.Outstanding != 0 || s.Processed != int64((round+1)*8*(1+8+64)) {
			t.Fatalf("round %d: small tenant after Drain: outstanding %d processed %d",
				round, s.Outstanding, s.Processed)
		}
	}
	if s := e.Snapshot(); s.Jobs[0].Outstanding == 0 {
		t.Fatal("busy tenant quiesced during the small tenant's drains")
	}
	storm.stop.Store(true)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkJobLedgers(t, e.Snapshot())
	_ = e.Stop(context.Background())
}

// TestJobStallErrorScoping pins the diagnostic split: a job-scoped drain
// timeout names the blocking job, the engine-wide one speaks for the fleet.
func TestJobStallErrorScoping(t *testing.T) {
	block := make(chan struct{})
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		<-block
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1})
	j, err := e.NewJob(w, JobConfig{Name: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(seedTasks(1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = j.Drain(ctx)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("job drain on a stuck handler: got %v, want *StallError", err)
	}
	if !se.JobScoped || se.Job != j.ID() {
		t.Errorf("StallError = %+v, want JobScoped for job %d", se, j.ID())
	}
	if msg := se.Error(); !strings.Contains(msg, "stuck") {
		t.Errorf("job-scoped stall message %q does not name the blocking job", msg)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	err = e.Drain(ctx2)
	if !errors.As(err, &se) {
		t.Fatalf("engine drain: got %v, want *StallError", err)
	}
	if se.JobScoped {
		t.Errorf("engine-wide StallError marked JobScoped: %+v", se)
	}
	close(block)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = e.Stop(context.Background())
}
