package main

// tenants-sssp-421: three SSSP jobs on three road lattices with different
// seeds, weighted 4:2:1 on one engine. The tasks are those of
// solve-road-sssp, so a difference between the two workloads isolates the
// job layer: the per-worker deficit round robin in the engine's batch fill.
// A sssp/bfs/pagerank mix was rejected: its share attainment ranged from
// 0.29 to 0.88 between runs, too unsteady to guard anything. At nproc
// workers this workload does not reproduce TestJobWeightedFairness's
// failure; it guards fairness and its cost.

import (
	"fmt"
	"math"
	"time"

	"hdcps/internal/exec"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

var tenantWeights = []int{4, 2, 1}

// setupTenants generates the three tenants' graphs and converges each once,
// verified.
func setupTenants(r *run) ([]workload.Workload, time.Duration, error) {
	_, end := r.spans.begin(0, "setup.tenants")
	defer end()
	t0 := time.Now()
	ws := make([]workload.Workload, len(tenantWeights))
	for i := range ws {
		w, _, err := roadSSSP(latticeSeed(r.seed, i))
		if err != nil {
			return nil, 0, err
		}
		runtime.Run(w, solveConfig(r.seed))
		r.checkVerify(w, fmt.Sprintf("tenant %d set-up solve", i))
		ws[i] = w
	}
	return ws, time.Since(t0), nil
}

func jobConfigs() []runtime.JobConfig {
	jcs := make([]runtime.JobConfig, len(tenantWeights))
	for i, wt := range tenantWeights {
		jcs[i] = runtime.JobConfig{Name: fmt.Sprintf("w%d", wt), Weight: wt}
	}
	return jcs
}

// round is one measured multi-job run.
type round struct {
	net    time.Duration // makespan net of host steal
	wall   time.Duration
	tasks  int64
	attain []float64 // per job: measured share ÷ entitled share
	window int64     // tasks in the all-backlogged window
}

// runRound runs the three jobs to completion on one engine and checks every
// output: the drain, the global and per-job conservation ledgers, and each
// job's distances.
func runRound(r *run, ws []workload.Workload, cfg runtime.Config) (round, bool) {
	id, end := r.spans.begin(0, "tenants.round")
	var (
		rep *exec.JobsReport
		err error
	)
	net, wall := timeNetOfSteal(func() { _, rep, err = exec.RunJobs(ws, jobConfigs(), exec.Spec{Native: &cfg}) })
	end()
	r.attempted++
	ok := true
	switch {
	case err != nil:
		r.fail("RunJobs: %v", err)
		ok = false
	case rep.DrainErr != nil:
		r.fail("RunJobs drain: %v", rep.DrainErr)
		ok = false
	case rep.ConservationErr != nil:
		r.fail("RunJobs conservation: %v", rep.ConservationErr)
		ok = false
	}
	_, endVerify := r.spans.begin(id, "workload.Verify")
	for i, w := range ws {
		if err := w.Verify(); err != nil {
			r.fail("tenant %d: %v", i, err)
			ok = false
		}
	}
	endVerify()
	if !ok {
		r.failed++
		return round{}, false
	}
	rd := round{net: net, wall: wall, tasks: rep.Snapshot.TasksProcessed, window: rep.ShareSamples}
	for i := range rep.Shares {
		rd.attain = append(rd.attain, rep.Shares[i]/rep.WeightShares[i])
	}
	if rep.ShareSamples == 0 {
		// No instant had every tenant backlogged: the round says nothing
		// about fairness, which the benchmark counts as a failed operation.
		r.failed++
		logf("tenants: round without a contention window")
		return rd, false
	}
	return rd, true
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func runTenants(r *run) error {
	r.fp.Workers = nproc
	r.fp.Graph = fmt.Sprintf("3x road-%dx%d weights 4:2:1", roadSide, roadSide)
	var (
		ws     []workload.Workload
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		wi, d, err := setupTenants(r)
		if err != nil {
			return err
		}
		ws = wi
		setups = append(setups, d.Seconds())
	}
	if r.trace {
		tenantRounds(r, ws, r.seconds)
		if err := solveProbe(r, probeSeconds); err != nil {
			return err
		}
		if err := serveLayers(r, serveProbeSeconds); err != nil {
			return err
		}
		microLayers(r)
		return nil
	}

	cfg := solveConfig(r.seed)
	var span, raw, tps, attain []float64
	for deadline := time.Now().Add(r.seconds); time.Now().Before(deadline); {
		rd, ok := runRound(r, ws, cfg)
		if !ok {
			continue
		}
		span = append(span, ms(rd.net))
		raw = append(raw, ms(rd.wall))
		tps = append(tps, float64(rd.tasks)/rd.net.Seconds())
		attain = append(attain, minOf(rd.attain))
	}
	r.set("setup_s", median(setups))
	r.set("latency_ms_p50", quantile(span, 0.5))
	r.set("latency_ms_tail", quantile(span, 0.9))
	r.set("throughput_tps", median(tps))
	r.set("fairness_min", median(attain))
	r.setOK()
	mem, err := peakMemMB(0)
	if err != nil {
		return err
	}
	r.set("peak_mem_mb", mem)
	logf("tenants-sssp-421: %d rounds, makespan net of steal p50 %.1f ms, wall p50 %.1f ms, attainment %.3f",
		len(span), quantile(span, 0.5), quantile(raw, 0.5), median(attain))
	return nil
}

// tenantRounds is the traced tenants run: rounds alternate untraced and
// traced (obs recorder attached, every Process call timed); it reports the
// job layer's shares and, when this is the tenants workload's own trace, the
// tracing overhead.
func tenantRounds(r *run, ws []workload.Workload, d time.Duration) {
	cfg := solveConfig(r.seed)
	tcfg := cfg
	tws := make([]workload.Workload, len(ws))
	for i, w := range ws {
		tws[i] = newTimed(w)
	}
	var plain, traced, window []float64
	shares := make([][]float64, len(ws))
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(traced) < 2; {
		if rd, ok := runRound(r, ws, cfg); ok {
			plain = append(plain, ms(rd.wall))
		}
		tcfg.Obs = obs.New(obs.Config{Workers: cfg.Workers})
		rd, ok := runRound(r, tws, tcfg)
		if !ok {
			continue
		}
		traced = append(traced, ms(rd.wall))
		window = append(window, float64(rd.window))
		for i, a := range rd.attain {
			shares[i] = append(shares[i], a)
		}
	}
	for i, wt := range tenantWeights {
		r.set(fmt.Sprintf("runtime.job.share_w%d", wt), median(shares[i]))
	}
	r.set("runtime.job.window_tasks", median(window))
	if r.workload == "tenants-sssp-421" {
		r.set("obs.trace_overhead_frac", median(traced)/median(plain)-1)
	}
}

// tenantLayers measures the job layer for a workload that does not exercise
// it: a fresh set-up and d of rounds.
func tenantLayers(r *run, d time.Duration) error {
	ws, _, err := setupTenants(r)
	if err != nil {
		return err
	}
	tenantRounds(r, ws, d)
	return nil
}
