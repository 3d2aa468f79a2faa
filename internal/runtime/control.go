package runtime

// The control layer is the drift-feedback plane of §III-C: workers report
// the priority of their latest task (Algorithm 3's send side), the layer
// assembles per-interval snapshots, runs the Algorithm 2 controller behind
// two guards (supply, then resolution; see Report), and publishes the
// resulting TDF for every dispatch decision to read with one atomic load.
// It is the only part of the runtime with any cross-worker policy state,
// which is why it gets its own file and tests.

import (
	"math"
	"sync"
	"sync/atomic"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

// neverReported is the sentinel a worker's report slot holds before its
// first report. It is excluded from drift snapshots: feeding the zero value
// of an idle slot into Equation 1 would fabricate a huge drift term (the
// reference is the minimum report) and skew the controller's first
// adjustments — exactly what happened when a fast worker reported twice
// before a slow one reported at all.
const neverReported = int64(1) << 62

// idleFlag is one worker's starvation flag: set while the worker is out of
// local work although the fleet still has tasks outstanding. Each flag sits
// on its own cache line, and its worker writes it only on transitions, so
// the hot path gains no shared write.
type idleFlag struct {
	v atomic.Bool
	_ [7]int64
}

// controlPlane owns drift reporting and TDF propagation for one engine.
type controlPlane struct {
	useTDF  bool
	workers int
	rec     *obs.Recorder // nil when observability is disabled

	// reports is the per-job report matrix: reports[job][worker] holds the
	// worker's latest priority within that job (atomic access), seeded with
	// neverReported. Jobs have independent priority domains (their own graphs
	// and scales), so drift must be measured within a job and only then
	// combined — one flat row would fabricate drift between tenants whose
	// priorities are merely on different scales. The matrix is COW: addJob
	// publishes a grown copy, readers pay one atomic pointer load.
	reports     atomic.Pointer[[][]int64]
	reportCount atomic.Int64
	// clamped counts out-of-range priority reports rejected at the
	// boundary (outside the band around the never-reported sentinel)
	// before they could corrupt the drift signal.
	clamped atomic.Int64

	// idle holds one starvation flag per worker (the supply guard's input).
	idle []idleFlag

	mu   sync.Mutex // serializes controller updates and history reads
	ctrl *drift.Controller

	// tdf is the propagated task-distribution factor in percent; every
	// dispatch reads it with one atomic load (the paper's non-blocking
	// propagation: workers keep using the previous value until the master's
	// update lands).
	tdf atomic.Int64
}

// newControlPlane builds the plane for cfg.Workers workers. With UseTDF off
// the TDF is pinned to FixedTDF (default 100: always distribute).
func newControlPlane(cfg Config) *controlPlane {
	cp := &controlPlane{
		useTDF:  cfg.UseTDF,
		workers: cfg.Workers,
		rec:     cfg.Obs,
		ctrl:    drift.NewController(cfg.Drift),
		idle:    make([]idleFlag, cfg.Workers),
	}
	rows := [][]int64{cp.newRow()}
	cp.reports.Store(&rows)
	if cfg.UseTDF {
		cp.tdf.Store(int64(cp.ctrl.TDF()))
	} else {
		tdf := int64(cfg.FixedTDF)
		if tdf <= 0 {
			tdf = 100
		}
		cp.tdf.Store(tdf)
	}
	return cp
}

// TDF returns the current task-distribution factor in percent.
func (cp *controlPlane) TDF() int64 { return cp.tdf.Load() }

// newRow builds one job's report row, every slot at the sentinel.
func (cp *controlPlane) newRow() []int64 {
	row := make([]int64, cp.workers)
	for i := range row {
		row[i] = neverReported
	}
	return row
}

// addJob grows the report matrix by one job row. Called under the engine's
// jobMu before the job becomes visible in the job table, so no Report for
// the new JobID can precede its row.
func (cp *controlPlane) addJob() {
	cp.mu.Lock()
	rows := *cp.reports.Load()
	grown := make([][]int64, len(rows)+1)
	copy(grown, rows)
	grown[len(rows)] = cp.newRow()
	cp.reports.Store(&grown)
	cp.mu.Unlock()
}

// setIdle records whether worker id is starving: out of local work while
// tasks are outstanding elsewhere. Only worker id calls it, so the flag is
// stored only when the state changes; every other call is a load of a line
// the worker already holds.
func (cp *controlPlane) setIdle(id int, v bool) {
	if f := &cp.idle[id].v; f.Load() != v {
		f.Store(v)
	}
}

// anyIdle reports whether some worker is starving.
func (cp *controlPlane) anyIdle() bool {
	for i := range cp.idle {
		if cp.idle[i].v.Load() {
			return true
		}
	}
	return false
}

// SampleInterval returns the per-worker report spacing in processed tasks.
func (cp *controlPlane) SampleInterval() int64 {
	return int64(cp.ctrl.Config().SampleInterval)
}

// Report implements Algorithm 3's send plus the master-side Algorithm 2
// step: the reporting worker stores its latest priority in its slot of the
// task's job row, and whichever report completes an interval (one report per
// worker's worth of sends) assembles the snapshot and runs the controller.
// Drift is measured within each job (priorities of different tenants live on
// unrelated scales) and the per-job drifts are combined weighted by how many
// workers reported for the job, so a tenant carrying most of the fleet's
// work dominates the feedback signal. The published reference is the
// dominant job's. Workers that have never reported for a job are excluded
// from that job's snapshot rather than contributing stale zeros.
//
// Algorithm 2 runs behind two guards; at each interval the first that
// applies decides the step:
//  1. Supply: a worker is starving (idle while work is outstanding), so the
//     TDF steps up — distribution is what feeds that worker.
//  2. Resolution: drift is below one priority unit, so the workers already
//     run within one bucket of the reference, the finest order the
//     workload's priorities express. More spreading cannot improve order and
//     only pays cross-core transfers, so the TDF steps down.
//  3. Otherwise Algorithm 2 decides, unchanged.
//
// Both guards go through Controller.Nudge, which keeps Algorithm 2's
// previous-step state consistent so it resumes cleanly.
func (cp *controlPlane) Report(id int, job task.JobID, prio int64) {
	// Validate at the boundary: a handler that emits a priority outside
	// the band around the never-reported sentinel would collide with it or
	// overflow Equation 1's |p - ref| and walk the controller's TDF off a
	// corrupted signal. Clamp and count instead. Negative priorities inside
	// the band are real (PageRank's and coloring's) and pass untouched.
	if prio <= -neverReported || prio >= neverReported {
		if prio < 0 {
			prio = -neverReported + 1
		} else {
			prio = neverReported - 1
		}
		cp.clamped.Add(1)
		if rec := cp.rec; rec != nil {
			rec.Add(id, obs.CDriftClamped, 1)
		}
	}
	rows := *cp.reports.Load()
	if int(job) >= len(rows) {
		job = 0
	}
	atomic.StoreInt64(&rows[job][id], prio)
	if rec := cp.rec; rec != nil {
		rec.Add(id, obs.CDriftReports, 1)
		rec.Event(id, obs.EvDriftReport, prio, int64(job), 0)
	}
	if cp.reportCount.Add(1) < int64(cp.workers) {
		return
	}
	cp.reportCount.Store(0)
	if !cp.useTDF {
		return
	}
	var (
		snapshot  = make([]int64, 0, cp.workers)
		driftSum  float64
		weightSum float64
		ref       int64
		refCount  int
	)
	for _, row := range rows {
		snapshot = snapshot[:0]
		for i := range row {
			if p := atomic.LoadInt64(&row[i]); p != neverReported {
				snapshot = append(snapshot, p)
			}
		}
		if len(snapshot) == 0 {
			continue
		}
		jref := drift.MinReference(snapshot)
		driftSum += drift.Drift(snapshot, jref) * float64(len(snapshot))
		weightSum += float64(len(snapshot))
		if len(snapshot) > refCount {
			refCount = len(snapshot)
			ref = jref
		}
	}
	if weightSum == 0 {
		return
	}
	pd := driftSum / weightSum
	cp.mu.Lock()
	var tdf int
	switch {
	case cp.anyIdle():
		tdf = cp.ctrl.Nudge(drift.Increase, pd, ref)
	case pd < 1:
		tdf = cp.ctrl.Nudge(drift.Decrease, pd, ref)
	default:
		tdf = cp.ctrl.UpdateWithRef(pd, ref)
	}
	cp.mu.Unlock()
	cp.tdf.Store(int64(tdf))
	if rec := cp.rec; rec != nil {
		rec.Add(id, obs.CTDFSteps, 1)
		rec.Event(id, obs.EvTDFStep, int64(tdf), int64(math.Float64bits(pd)), ref)
	}
}

// Clamped reports how many out-of-range priority reports were clamped at
// the boundary so far.
func (cp *controlPlane) Clamped() int64 { return cp.clamped.Load() }

// History returns the controller's per-interval drift/TDF records. Safe to
// call while workers are still reporting.
func (cp *controlPlane) History() []drift.Record {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.History()
}

// Series returns the control plane's time series — per-interval drift,
// reference priority, and TDF — the view that replaces eyeballing a
// point-in-time snapshot when studying the feedback loop. Safe to call
// while workers are still reporting.
func (cp *controlPlane) Series() []obs.ControlPoint {
	hist := cp.History()
	pts := make([]obs.ControlPoint, len(hist))
	for i, rec := range hist {
		pts[i] = obs.ControlPoint{Interval: i, Drift: rec.Drift, Ref: rec.Ref, TDF: rec.TDF}
	}
	return pts
}
