package main

// solve-road-sssp: repeated one-at-a-time SSSP solves on one road lattice.
// This is the paper's own case — a deep, priority-ordered task graph where
// drift/TDF, the local queue, the ring transport and bags decide how much
// work is wasted — with no network and one tenant. A 400×400 lattice (160k
// nodes, ~250k tasks per solve) is the smallest whose solve time and work
// ratio are steady on a 2-CPU box; 240×240 spread 47–58 ms per solve.

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

const (
	roadSide = 400
	// setupReps set-ups per run, one per lattice; setup_s is their median.
	// A run solves its lattices in turn, so its figures average over three
	// inputs instead of hinging on one.
	setupReps = 3
)

// latticeSeed derives the i-th lattice of a run from the run's seed; the
// solve and tenants workloads use the same lattices.
func latticeSeed(seed uint64, i int) uint64 { return seed*setupReps + uint64(i) + 1 }

func solveConfig(seed uint64) runtime.Config {
	cfg := runtime.DefaultConfig(nproc) // twolevel queue, TDF on, selective bags
	cfg.Seed = seed
	return cfg
}

// roadSSSP generates one road lattice and the default SSSP over it.
func roadSSSP(seed uint64) (workload.Workload, time.Duration, error) {
	t0 := time.Now()
	g := graph.Road(roadSide, roadSide, seed)
	gen := time.Since(t0)
	w, err := workload.New("sssp", g)
	return w, gen, err
}

// setupSolve is one full set-up: generate the graph, build the workload and
// run the first solve to convergence, verified (which also computes the
// sequential reference every later Verify compares against).
func setupSolve(r *run, graphSeed uint64) (workload.Workload, time.Duration, time.Duration, error) {
	_, end := r.spans.begin(0, "setup.solve")
	defer end()
	t0 := time.Now()
	w, gen, err := roadSSSP(graphSeed)
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.Run(w, solveConfig(r.seed))
	if err := w.Verify(); err != nil {
		r.fail("set-up solve: %v", err)
	}
	return w, gen, time.Since(t0), nil
}

func runSolve(r *run) error {
	r.fp.Workers = nproc
	r.fp.Graph = fmt.Sprintf("%dx road-%dx%d", setupReps, roadSide, roadSide)
	var (
		ws     []workload.Workload
		setups []float64
		gens   []float64
	)
	for i := 0; i < setupReps; i++ {
		w, gen, d, err := setupSolve(r, latticeSeed(r.seed, i))
		if err != nil {
			return err
		}
		ws = append(ws, w)
		setups = append(setups, d.Seconds())
		gens = append(gens, ms(gen))
	}
	if r.trace {
		r.set("graph.gen_ms", median(gens))
		solveLayers(r, ws[0], r.seconds)
		if err := tenantLayers(r, probeSeconds); err != nil {
			return err
		}
		if err := serveLayers(r, serveProbeSeconds); err != nil {
			return err
		}
		microLayers(r)
		return nil
	}

	lat, tps, raw := measureSolves(r, ws, r.seconds)
	r.set("setup_s", median(setups))
	r.set("latency_ms_p50", quantile(lat, 0.5))
	r.set("latency_ms_tail", quantile(lat, 0.9))
	r.set("throughput_tps", median(tps))
	r.set("fairness_min", 1) // one tenant receives its whole entitlement by definition
	r.setOK()
	mem, err := peakMemMB(0)
	if err != nil {
		return err
	}
	r.set("peak_mem_mb", mem)
	logf("solve-road-sssp: %d solves, net of steal p50 %.1f ms p90 %.1f ms; wall p50 %.1f ms p90 %.1f ms",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(raw, 0.5), quantile(raw, 0.9))
	return nil
}

// measureSolves runs verified solves back to back for d, cycling over ws,
// and returns each solve's time net of host steal (engine construction to
// stop, as a caller of runtime.Run sees it) in ms, its tasks per second, and
// the raw wall times.
func measureSolves(r *run, ws []workload.Workload, d time.Duration) (lat, tps, raw []float64) {
	cfg := solveConfig(r.seed)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		w := ws[len(lat)%len(ws)]
		var res runtime.Result
		net, wall := timeNetOfSteal(func() { res = runtime.Run(w, cfg) })
		r.attempted++
		r.checkVerify(w, fmt.Sprintf("solve %d", len(lat)))
		lat = append(lat, ms(net))
		raw = append(raw, ms(wall))
		tps = append(tps, float64(res.TasksProcessed)/net.Seconds())
	}
	return lat, tps, raw
}

// solveLayers is the traced solve run. Untraced and traced solves alternate,
// so obs.trace_overhead_frac compares neighbours in time; the traced ones
// attach the obs recorder, time every Process call, and read the engine's
// snapshot, which runtime.Run does not expose.
func solveLayers(r *run, w workload.Workload, d time.Duration) {
	cfg := solveConfig(r.seed)
	seq := workload.RunSequential(w.Clone())
	tw := newTimed(w)

	var plain, traced, sched, busy, parks, redirects, spills, hot, falls, bags, allocs, driftMean, tdf, tps []float64
	var tasks, edges int64
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(traced) < 3; {
		// Untraced solve: wall time and allocations.
		var m0, m1 stdruntime.MemStats
		stdruntime.ReadMemStats(&m0)
		t0 := time.Now()
		res := runtime.Run(w, cfg)
		wall := time.Since(t0)
		stdruntime.ReadMemStats(&m1)
		r.checkVerify(w, "untraced solve")
		plain = append(plain, ms(wall))
		tps = append(tps, float64(res.TasksProcessed)/wall.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(res.TasksProcessed))

		// Traced solve.
		id, end := r.spans.begin(0, "solve.traced")
		tw.resetBusy()
		tcfg := cfg
		tcfg.Obs = obs.New(obs.Config{Workers: cfg.Workers})
		t0 = time.Now()
		e := runtime.NewEngine(tw, tcfg)
		_, endSubmit := r.spans.begin(id, "runtime.Engine.Submit")
		_ = e.Submit(tw.InitialTasks()...)
		endSubmit()
		_, endDrain := r.spans.begin(id, "runtime.Engine.Drain")
		_ = e.Start()
		drainErr := e.Drain(context.Background())
		endDrain()
		_ = e.Stop(context.Background())
		wall = time.Since(t0)
		end()
		if drainErr != nil {
			r.fail("traced solve drain: %v", drainErr)
		}
		_, endVerify := r.spans.begin(id, "workload.Verify")
		r.checkVerify(w, "traced solve")
		endVerify()

		snap, res := e.Snapshot(), e.Result()
		n := float64(res.TasksProcessed)
		capacity := float64(cfg.Workers) * float64(wall.Nanoseconds())
		traced = append(traced, ms(wall))
		sched = append(sched, (capacity-float64(tw.busyNs.Load()))/n)
		busy = append(busy, float64(tw.busyNs.Load())/capacity)
		var ip, sp int64
		for _, ws := range snap.Workers {
			ip += ws.IdleParks
			sp += ws.OverflowSpills
		}
		parks = append(parks, float64(ip))
		spills = append(spills, 1000*float64(sp)/n)
		redirects = append(redirects, 1000*float64(snap.Redirects)/n)
		hot = append(hot, 1000*float64(snap.HotSpills)/n)
		falls = append(falls, float64(snap.QueueFallbacks))
		bags = append(bags, 1000*float64(res.BagsCreated)/n)
		driftMean = append(driftMean, mean(res.DriftTrace))
		if k := len(res.TDFTrace); k > 0 {
			tdf = append(tdf, float64(res.TDFTrace[k-1]))
		}
		tasks += res.TasksProcessed
		edges += res.EdgesExamined
	}
	r.set("runtime.work_ratio", float64(tasks)/float64(len(traced))/float64(seq))
	r.set("runtime.tasks_per_s", median(tps))
	r.set("runtime.sched_ns_per_task", median(sched))
	r.set("runtime.busy_frac", median(busy))
	r.set("runtime.idle_parks_per_solve", median(parks))
	r.set("runtime.redirects_per_ktask", median(redirects))
	r.set("runtime.allocs_per_task", median(allocs))
	r.set("rq.spills_per_ktask", median(spills))
	r.set("pq.hot_spills_per_ktask", median(hot))
	r.set("pq.queue_fallbacks", median(falls))
	r.set("bag.bags_per_ktask", median(bags))
	r.set("drift.mean", median(driftMean))
	r.set("drift.tdf_final", median(tdf))
	r.set("workload.process_ns_p50", float64(tw.hist.Quantile(0.5)))
	r.set("workload.edges_per_task", float64(edges)/float64(tasks))
	if r.workload == "solve-road-sssp" {
		r.set("obs.trace_overhead_frac", median(traced)/median(plain)-1)
	}
	r.attempted += int64(len(plain) + len(traced))
}

// checkVerify verifies one finished solve and accounts for it.
func (r *run) checkVerify(w workload.Workload, what string) {
	if err := w.Verify(); err != nil {
		r.failed++
		r.fail("%s: %v", what, err)
	}
}

// setOK records ok_frac, the share of attempted operations that did not
// fail: 1 − fail_frac, so that it is never 0.
func (r *run) setOK() {
	if r.attempted == 0 {
		r.set("ok_frac", 0)
		return
	}
	r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted))
}
