package main

// Per-layer measurements for the traced run. Each workload's trace measures
// the layers it exercises on its own traffic; the layers it does not
// exercise are measured by a short probe of the workload that does, so every
// traced run reports every per-layer metric (README.md maps each to the
// end-to-end metric it should move).

import (
	"context"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/pq"
	"hdcps/internal/rq"
	"hdcps/internal/runtime"
	"hdcps/internal/serve"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// probeSeconds is the length of a probe of a layer the traced workload does
// not exercise itself; the serve probe runs three ladders and gets longer.
const (
	probeSeconds      = 3 * time.Second
	serveProbeSeconds = 20 * time.Second
)

// solveProbe measures the solo-solve layers for a workload that does not
// run solo solves: one set-up, then d of traced and untraced solves.
func solveProbe(r *run, d time.Duration) error {
	w, gen, _, err := setupSolve(r, latticeSeed(r.seed, 0))
	if err != nil {
		return err
	}
	r.set("graph.gen_ms", ms(gen))
	solveLayers(r, w, d)
	return nil
}

// serveLayers runs the serve ladder at three depths, at the same rates:
// parse only (encode a batch, parse a batch), in-process (the same plus
// Engine.Submit into a local engine), and loopback HTTP into hdcps-serve.
// The gap between two depths is attributed to the hop that separates them.
func serveLayers(r *run, d time.Duration) error {
	serveFingerprint(r)
	windowDur, rungDur := serveDurations(d)
	seed := int64(r.seed)*1000 + 500
	oneWindow := func(sub submitFunc, rate float64) loopResult {
		return openLoop(sub, loopOpts{rate: rate, batch: batchSize, dur: windowDur, seed: seed,
			senders: senders, queueCap: queueCap})
	}

	// Depth 1: parse only.
	g := graph.Road(120, 120, r.seed)
	gen := serve.RefreshGen(g.NumNodes(), int64(r.seed))
	body := serve.IngestBenchBody(batchSize, g.NumNodes())
	parse := func(n int) (int, error) {
		serve.EncodeBenchLoop(gen(n))
		if _, err := serve.IngestBenchLoop(body); err != nil {
			return 0, err
		}
		return n, nil
	}
	_, end := r.spans.begin(0, "ladder.parse")
	parseRungs, _ := climb(func(rate float64, dur time.Duration, s int64) (rung, error) {
		return rung{res: openLoop(parse, loopOpts{rate: rate, batch: batchSize, dur: dur, seed: s,
			senders: senders, queueCap: queueCap})}, nil
	}, rungDur, seed)
	parseHigh := oneWindow(parse, rateHigh)
	end()

	// Depth 2: in-process Engine.Submit, over the graph hdcps-serve builds.
	w, err := workload.New("sssp", g)
	if err != nil {
		return err
	}
	cfg := runtime.DefaultConfig(nproc)
	cfg.Seed = r.seed
	cfg.DefaultJob = runtime.JobConfig{Name: "sssp", MaxOutstanding: 1 << 16} // hdcps-serve's default quota
	eng := runtime.NewEngine(w, cfg)
	_ = eng.Submit(w.InitialTasks()...)
	if err := eng.Start(); err != nil {
		return err
	}
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return eng.Drain(ctx)
	}
	if err := drain(); err != nil {
		return err
	}
	submitHist := obs.NewHistogram()
	var tsPool = sync.Pool{New: func() any { s := make([]task.Task, 0, batchSize); return &s }}
	inproc := func(n int) (int, error) {
		specs := gen(n)
		serve.EncodeBenchLoop(specs)
		if _, err := serve.IngestBenchLoop(body); err != nil {
			return 0, err
		}
		tp := tsPool.Get().(*[]task.Task)
		ts := (*tp)[:0]
		for _, sp := range specs {
			ts = append(ts, task.Task{Node: graph.NodeID(sp.Node), Prio: sp.Prio, Data: sp.Data})
		}
		t0 := time.Now()
		err := eng.Submit(ts...)
		submitHist.Observe(time.Since(t0).Nanoseconds() / int64(n))
		*tp = ts
		tsPool.Put(tp)
		if err != nil {
			return 0, err
		}
		return n, nil
	}
	_, end = r.spans.begin(0, "ladder.inproc")
	inRungs, err := climb(func(rate float64, dur time.Duration, s int64) (rung, error) {
		res := openLoop(inproc, loopOpts{rate: rate, batch: batchSize, dur: dur, seed: s,
			senders: senders, queueCap: queueCap})
		backlog := eng.Outstanding()
		return rung{res: res, backlog: backlog}, drain()
	}, rungDur, seed)
	if err != nil {
		return err
	}
	inHigh := oneWindow(inproc, rateHigh)
	backlogEnd := eng.Outstanding()
	if err := drain(); err != nil {
		return err
	}
	end()
	snap := eng.Snapshot()
	if err := eng.Stop(context.Background()); err != nil {
		return err
	}
	if snap.Submitted != int64(len(w.InitialTasks()))+sumTasks(inRungs)+inHigh.tasks {
		r.fail("in-process engine Submitted %d, want %d", snap.Submitted,
			int64(len(w.InitialTasks()))+sumTasks(inRungs)+inHigh.tasks)
	}

	// Depth 3: loopback HTTP into hdcps-serve.
	srv, _, err := startServer(r, false)
	if err != nil {
		return err
	}
	_, end = r.spans.begin(0, "ladder.loopback")
	ss, err := runSession(r, srv, windowDur, rungDur)
	end()
	if err != nil {
		srv.kill()
		return err
	}
	overhead := 0.0
	if r.workload == "serve-refresh" {
		if overhead, err = serveObsOverhead(r, srv, windowDur); err != nil {
			srv.kill()
			return err
		}
	}
	if err := srv.stop(); err != nil {
		r.fail("%v", err)
	}
	logRungs("parse-only", parseRungs)
	logRungs("in-process", inRungs)
	logRungs("serve", ss.rungs)
	r.attempted += ss.attempted
	r.failed += ss.failedFixed

	loopHigh := median(p50s(ss.high))
	inKnee, loopKnee := knee(inRungs), ss.knee
	r.set("serve.parse_knee_tps", knee(parseRungs))
	r.set("runtime.inproc_knee_tps", inKnee)
	r.set("serve.loopback_knee_tps", loopKnee)
	r.set("serve.http_us_per_task", 1e6/loopKnee-1e6/inKnee)
	r.set("hop.parse_ms_p50_high", parseHigh.quantileMs(0.5))
	r.set("hop.submit_ms_p50_high", inHigh.quantileMs(0.5)-parseHigh.quantileMs(0.5))
	r.set("hop.http_ms_p50_high", loopHigh-inHigh.quantileMs(0.5))
	r.set("runtime.submit_ns_per_task", float64(submitHist.Quantile(0.5)))
	r.set("runtime.backlog_end", float64(backlogEnd))
	r.set("serve.ack_ms_p50_low", median(p50s(ss.low)))
	r.set("serve.ack_ms_p99_low", median(p99s(ss.low)))
	r.set("serve.server_cpu_us_per_task", float64(ss.serverCPU.Microseconds())/float64(ss.tasks))
	r.set("serve.shed", float64(ss.infoAfter.Shed-ss.infoBefore.Shed))
	r.set("serve.resumes", float64(ss.infoAfter.Resumes-ss.infoBefore.Resumes))
	r.set("serve.conn_aborts", float64(ss.infoAfter.ConnAborts-ss.infoBefore.ConnAborts))
	r.set("serve.client_retries", float64(ss.retries))
	r.set("load.client_cpu_us_per_task", float64(ss.clientCPU.Microseconds())/float64(ss.tasks))
	var lag time.Duration
	for _, res := range append(append([]loopResult(nil), ss.low...), ss.high...) {
		lag = max(lag, res.genLagMax())
	}
	r.set("load.gen_lag_ms_max", ms(lag))
	if r.workload == "serve-refresh" {
		r.set("obs.trace_overhead_frac", overhead)
	}
	return nil
}

// serveObsOverhead compares server CPU per task at the high rate between srv
// (recorder off) and a second server with the obs recorder on, alternating
// windows so both see the same box conditions.
func serveObsOverhead(r *run, off *server, windowDur time.Duration) (float64, error) {
	on, _, err := startServer(r, true)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err := on.stop(); err != nil {
			r.fail("%v", err)
		}
	}()
	cost := func(srv *server, seed int64) (float64, error) {
		lb := newLoopback(srv, r.seed)
		defer lb.closer.Close()
		if _, _, err := lb.offer(rateHigh, windowDur, seed); err != nil { // warm
			return 0, err
		}
		c0, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t0 := lb.confirmed
		if _, _, err := lb.offer(rateHigh, 2*windowDur, seed+1); err != nil {
			return 0, err
		}
		c1, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		return float64(c1-c0) / float64(lb.confirmed-t0), nil
	}
	var offs, ons []float64
	for i := int64(0); i < 2; i++ {
		a, err := cost(off, 900+i)
		if err != nil {
			return 0, err
		}
		b, err := cost(on, 900+i)
		if err != nil {
			return 0, err
		}
		offs, ons = append(offs, a), append(ons, b)
	}
	return median(ons)/median(offs) - 1, nil
}

func sumTasks(rungs []rung) int64 {
	var n int64
	for _, g := range rungs {
		n += g.res.tasks
	}
	return n
}

func p50s(rs []loopResult) []float64 {
	out := make([]float64, len(rs))
	for i, res := range rs {
		out[i] = res.quantileMs(0.5)
	}
	return out
}

func p99s(rs []loopResult) []float64 {
	out := make([]float64, len(rs))
	for i, res := range rs {
		out[i] = res.quantileMs(0.99)
	}
	return out
}

// microLayers times single layers in isolation through their public calls.
func microLayers(r *run) {
	const lines = 4096
	body := serve.IngestBenchBody(lines, 1<<20)
	specs := make([]serve.TaskSpec, lines)
	for i := range specs {
		specs[i] = serve.TaskSpec{Node: uint32(i * 2654435761), Prio: int64(i%13) - 6, Data: uint64(i)}
	}
	parseNs, parseAllocs := perOp(lines, func() {
		if _, err := serve.IngestBenchLoop(body); err != nil {
			r.fail("IngestBenchLoop: %v", err)
		}
	})
	encodeNs, _ := perOp(lines, func() { serve.EncodeBenchLoop(specs) })
	r.set("serve.parse_ns_per_line", parseNs)
	r.set("serve.parse_allocs_per_line", parseAllocs)
	r.set("serve.encode_ns_per_line", encodeNs)
	r.set("rq.handoff_ns_per_task", medianOf(3, ringHandoff))
	r.set("pq.pushpop_ns", medianOf(3, pushPop))
}

// perOp runs f (which handles n items) for about 200ms after a warm-up call
// and returns ns and heap allocations per item.
func perOp(n int, f func()) (ns, allocs float64) {
	f()
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	iters := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		f()
		iters++
	}
	el := time.Since(t0)
	stdruntime.ReadMemStats(&m1)
	items := float64(iters * n)
	return float64(el.Nanoseconds()) / items, float64(m1.Mallocs-m0.Mallocs) / items
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// ringHandoff moves tasks from one producer to one consumer through a
// receive ring in TryPushBatch batches of 16 (the engine's dispatch batch)
// and returns ns per task.
func ringHandoff() float64 {
	const total = 1 << 20
	ring := rq.NewRing(256)
	batch := make([]task.Task, 16)
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]task.Task, 0, 256)
		for got := 0; got < total; {
			buf = ring.Drain(buf[:0], 0)
			if len(buf) == 0 {
				stdruntime.Gosched()
			}
			got += len(buf)
		}
	}()
	for sent := 0; sent < total; {
		n := ring.TryPushBatch(batch)
		if n == 0 {
			stdruntime.Gosched()
			continue
		}
		sent += n
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / total
}

// pushPop drives the default local queue (two-level, the engine's default
// 48-entry hot buffer) with a monotone SSSP-like stream: each pop pushes a
// child a little further out. It returns ns per push+pop pair.
func pushPop() float64 {
	const live, ops = 1024, 1 << 20
	q := pq.NewTwoLevel(pq.TwoLevelConfig{HotCap: 48})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < live; i++ {
		q.Push(task.Task{Node: graph.NodeID(i), Prio: int64(rng.Intn(64))})
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t, ok := q.Pop()
		if !ok {
			panic(fmt.Sprintf("pushPop: queue empty after %d ops", i))
		}
		t.Prio += int64(1 + rng.Intn(64))
		q.Push(t)
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}
