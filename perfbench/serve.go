package main

// serve-refresh: open-loop Poisson arrivals of RefreshGen batches over
// persistent streams into a separate hdcps-serve process. Refresh tasks are
// cheap and rarely spawn, so parsing, admission, HTTP and Engine.Submit do
// most of the work and the scheduler little: the inverse of
// solve-road-sssp.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hdcps/internal/serve"
)

const (
	batchSize = 32
	// Fixed offered rates, near 15% and 60% of the loopback knee this
	// benchmark measures on a 2-CPU box (~720k tasks/s).
	rateLow  = 110_000.0
	rateHigh = 430_000.0
	// ackLimit is the batch-ack p99 a ladder rung must stay under to count
	// toward the knee, and the most offered work the engine or the client
	// may hold back when a rung ends. On a virtual machine that deschedules
	// even an idle process for 10–40ms about 1% of the time, a tighter limit
	// measures the host, not the server.
	ackLimit = 50 * time.Millisecond
	// senders bounds the batches in flight; queueCap the arrivals waiting
	// for a sender before new ones are shed (about 4ms of work at the
	// highest ladder rate).
	senders  = 64
	queueCap = 8192
	// windowReps valid fixed-rate windows per rate and run; their per-window
	// quantiles are reported as medians.
	windowReps = 3
	// rungAttempts bounds the runs of one ladder rate whose generator fell
	// behind.
	rungAttempts = 3
)

// ladder is the fixed set of offered rates, tasks/s, the knee is read from.
var ladder = []float64{
	500_000, 530_000, 560_000, 600_000, 640_000, 680_000, 720_000, 760_000, 810_000,
	860_000, 910_000, 970_000, 1_030_000, 1_090_000, 1_160_000, 1_230_000, 1_300_000,
	1_380_000, 1_460_000, 1_550_000, 1_640_000,
}

func streams() int { return min(2, nproc) }

// server is one hdcps-serve process under test.
type server struct {
	cmd    *exec.Cmd
	cl     *serve.Client
	info   serve.Info
	exited chan error
}

// serverSeq numbers the servers this process starts, to name their files.
var serverSeq int

// startServer launches hdcps-serve on a free loopback port and returns once
// it is ready and its initial solve has converged (nothing outstanding).
func startServer(r *run, obsOn bool) (*server, time.Duration, error) {
	if r.serveBin == "" {
		return nil, 0, errors.New("no -serve-bin given")
	}
	dir, err := filepath.Abs(filepath.Join(filepath.Dir(r.outDir), "run"))
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	serverSeq++
	name := fmt.Sprintf("%d-%d", os.Getpid(), serverSeq)
	addrFile := filepath.Join(dir, "addr-"+name)
	_ = os.Remove(addrFile)
	logFile, err := os.Create(filepath.Join(dir, "serve-"+name+".log"))
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()

	t0 := time.Now()
	cmd := exec.Command(r.serveBin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(nproc), "-scale", "small", "-seed", strconv.FormatUint(r.seed, 10),
		"-obs="+strconv.FormatBool(obsOn))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hdcps-serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()

	fail := func(err error) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, err
	}
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		buf, _ := os.ReadFile(addrFile)
		if a := strings.TrimSpace(string(buf)); strings.HasSuffix(string(buf), "\n") && a != "" {
			addr = a
			break
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return fail(fmt.Errorf("hdcps-serve exited before listening: %v", err))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(errors.New("hdcps-serve did not bind within 30s"))
		}
	}
	s.cl = &serve.Client{Base: "http://" + addr}
	ctx := context.Background()
	if err := s.cl.WaitReady(ctx, 30*time.Second); err != nil {
		return fail(err)
	}
	if err := s.quiesce(30 * time.Second); err != nil {
		return fail(err)
	}
	setup := time.Since(t0)
	if s.info, err = s.cl.Info(ctx); err != nil {
		return fail(err)
	}
	return s, setup, nil
}

// quiesce waits until the engine has nothing outstanding.
func (s *server) quiesce(limit time.Duration) error {
	for deadline := time.Now().Add(limit); ; {
		snap, err := s.cl.Snapshot(context.Background())
		if err != nil {
			return err
		}
		if snap.Outstanding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hdcps-serve still has %d tasks outstanding after %v", snap.Outstanding, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain. A non-zero exit means
// the server's conservation ledger did not balance.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("hdcps-serve drain after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(90 * time.Second):
		s.kill()
		return errors.New("hdcps-serve did not exit within 90s of SIGTERM")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// loopback is a set of persistent streams into one server, with the
// client-side count of confirmed tasks.
type loopback struct {
	srv       *server
	sub       submitFunc
	closer    interface{ Close() error }
	retries   *serve.RetryStats
	confirmed int64
}

func newLoopback(srv *server, seed uint64) *loopback {
	lb := &loopback{srv: srv, retries: &serve.RetryStats{}}
	gen := serve.RefreshGen(srv.info.Nodes, int64(seed))
	ls, closer := srv.cl.StreamSubmitter(context.Background(), 0, gen, streams(), serve.RetryPolicy{}, lb.retries)
	lb.closer = closer
	lb.sub = func(n int) (int, error) {
		acc, _, err := ls(n)
		return acc, err
	}
	return lb
}

// offer runs one open-loop window and then waits for the engine to drain,
// so consecutive windows start from the same empty state.
func (lb *loopback) offer(rate float64, dur time.Duration, seed int64) (loopResult, int64, error) {
	res := openLoop(lb.sub, loopOpts{rate: rate, batch: batchSize, dur: dur, seed: seed,
		senders: senders, queueCap: queueCap})
	lb.confirmed += res.tasks
	snap, err := lb.srv.cl.Snapshot(context.Background())
	if err != nil {
		return res, 0, err
	}
	return res, snap.Outstanding, lb.srv.quiesce(60 * time.Second)
}

// rung is one ladder step's verdict.
type rung struct {
	res     loopResult
	backlog int64 // engine tasks outstanding when the schedule ended
}

// passes reports whether the rung meets the knee's conditions: the
// generator kept schedule, at most 1% of arrivals failed, the batch-ack p99
// (failures counted as misses) is under ackLimit, and the backlog did not
// grow: neither the client's queue nor the engine holds more than ackLimit
// of offered work when the schedule ends.
func (g rung) passes() bool {
	limit := g.res.rate * ackLimit.Seconds()
	return g.res.valid() &&
		g.res.failFrac() <= 0.01 &&
		g.res.quantileMs(0.99) < ms(ackLimit) &&
		float64(g.res.backlog*batchSize) <= limit &&
		float64(g.backlog) <= limit
}

// climb runs the ladder in order and returns every rung measured. A rung
// whose generator fell behind measured the host, not the target: it is run
// again, up to rungAttempts times, and if it never keeps schedule the climb
// moves on without counting it either way. The climb stops after two
// consecutive failing rungs that did keep schedule: beyond them the target is
// saturated and further rungs would only add failures.
func climb(offer func(rate float64, dur time.Duration, seed int64) (rung, error), dur time.Duration, seed int64) ([]rung, error) {
	var rungs []rung
	misses := 0
	for i, rate := range ladder {
		for a := int64(0); a < rungAttempts; a++ {
			g, err := offer(rate, dur, seed+int64(i)+1000*a)
			if err != nil {
				return rungs, err
			}
			rungs = append(rungs, g)
			if g.res.valid() {
				break
			}
		}
		switch last := rungs[len(rungs)-1]; {
		case !last.res.valid():
		case last.passes():
			misses = 0
		default:
			misses++
		}
		if misses == 2 {
			break
		}
	}
	return rungs, nil
}

// knee is the highest ladder rate whose rung passes (0 if none does).
func knee(rungs []rung) float64 {
	var k float64
	for _, g := range rungs {
		if g.passes() && g.res.rate > k {
			k = g.res.rate
		}
	}
	return k
}

// serveSession is one measured pass over a running server: warm-up, the
// fixed-rate windows and the ladder, with every correctness check the
// traffic allows.
type serveSession struct {
	low, high   []loopResult
	rungs       []rung
	knee        float64
	infoBefore  serve.Info
	infoAfter   serve.Info
	serverCPU   time.Duration // server CPU over the windows and the ladder
	clientCPU   time.Duration // this process's CPU over the same span
	tasks       int64         // tasks confirmed over the same span
	retries     int64
	attempted   int64 // arrivals offered, warm-up excluded
	failedFixed int64 // failed arrivals in the fixed-rate windows
}

func runSession(r *run, srv *server, windowDur, rungDur time.Duration) (*serveSession, error) {
	ctx := context.Background()
	ss := &serveSession{}
	snap0, err := srv.cl.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	if ss.infoBefore, err = srv.cl.Info(ctx); err != nil {
		return nil, err
	}
	lb := newLoopback(srv, r.seed)
	seed := int64(r.seed) * 1000

	// Warm-up: the first refresh wave re-relaxes from the touched nodes;
	// after it the refresh cost is steady.
	if _, _, err := lb.offer(rateHigh, 5*time.Second, seed); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	self0, tasks0 := selfCPU(), lb.confirmed

	// Windows alternate low and high until each rate has windowReps valid
	// ones or twice their nominal time is spent; windows whose generator fell
	// behind are logged and set aside.
	var lowAll, highAll []loopResult
	deadline := time.Now().Add(4 * windowReps * windowDur)
	for i := 0; (len(ss.low) < windowReps || len(ss.high) < windowReps) && time.Now().Before(deadline); i++ {
		for _, w := range []struct {
			rate     float64
			out, all *[]loopResult
		}{{rateLow, &ss.low, &lowAll}, {rateHigh, &ss.high, &highAll}} {
			_, end := r.spans.begin(0, fmt.Sprintf("serve.window.%.0f", w.rate))
			res, _, err := lb.offer(w.rate, windowDur, seed+int64(1+i))
			end()
			if err != nil {
				return nil, err
			}
			ss.attempted += res.offered
			ss.failedFixed += res.failed
			logf("serve window %6.0f tasks/s: p50 %.3f p90 %.3f p99 %.3f ms fail %d lag p95 %.3f ms valid %v", w.rate,
				res.quantileMs(0.5), res.quantileMs(0.9), res.quantileMs(0.99), res.failed,
				float64(res.genLag.Quantile(0.95))/1e6, res.valid())
			*w.all = append(*w.all, res)
			if res.valid() {
				*w.out = append(*w.out, res)
			}
		}
	}
	if len(ss.low) == 0 || len(ss.high) == 0 {
		logf("serve: WARNING: the generator fell behind in every window of a rate; reporting all windows")
		ss.low, ss.high = lowAll, highAll
	}
	ss.rungs, err = climb(func(rate float64, dur time.Duration, s int64) (rung, error) {
		_, end := r.spans.begin(0, fmt.Sprintf("serve.rung.%.0f", rate))
		res, backlog, err := lb.offer(rate, dur, s)
		end()
		ss.attempted += res.offered
		return rung{res: res, backlog: backlog}, err
	}, rungDur, seed+100)
	if err != nil {
		return nil, err
	}
	ss.knee = knee(ss.rungs)
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ss.serverCPU, ss.clientCPU, ss.tasks = cpu1-cpu0, selfCPU()-self0, lb.confirmed-tasks0

	if err := lb.closer.Close(); err != nil {
		return nil, fmt.Errorf("closing streams: %w", err)
	}
	ss.retries = lb.retries.Retries.Load()
	snap1, err := srv.cl.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	if ss.infoAfter, err = srv.cl.Info(ctx); err != nil {
		return nil, err
	}
	if grew := snap1.Submitted - snap0.Submitted; grew != lb.confirmed {
		r.fail("client confirmed %d tasks but the engine's Submitted grew by %d", lb.confirmed, grew)
	}
	return ss, nil
}

// serveFingerprint records the serve configuration in the run's fingerprint.
func serveFingerprint(r *run) {
	r.fp.Workers = nproc
	r.fp.Streams = streams()
	r.fp.Batch = batchSize
	r.fp.Rates = append([]float64{rateLow, rateHigh}, ladder...)
}

func runServe(r *run) error {
	serveFingerprint(r)
	r.fp.Graph = "road-120x120 (hdcps-serve -scale small)"
	if r.trace {
		if err := serveLayers(r, r.seconds); err != nil {
			return err
		}
		if err := solveProbe(r, probeSeconds); err != nil {
			return err
		}
		if err := tenantLayers(r, probeSeconds); err != nil {
			return err
		}
		microLayers(r)
		return nil
	}

	// Set-up is measured on three server starts; the first two are drained
	// straight away, which also proves an idle drain exits clean.
	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		s, d, err := startServer(r, false)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				r.fail("%v", err)
			}
			continue
		}
		srv = s
	}
	windowDur, rungDur := serveDurations(r.seconds)
	ss, err := runSession(r, srv, windowDur, rungDur)
	if err != nil {
		srv.kill()
		return err
	}
	mem, err := peakMemMB(srv.cmd.Process.Pid)
	if err != nil {
		srv.kill()
		return err
	}
	if err := srv.stop(); err != nil {
		r.fail("%v", err)
	}

	r.attempted += ss.attempted
	r.failed += ss.failedFixed
	var p50, p99 []float64
	for _, res := range ss.high {
		p50 = append(p50, res.quantileMs(0.5))
		p99 = append(p99, res.quantileMs(0.99))
	}
	if len(ss.high) == 0 {
		r.fail("no valid window at the high rate")
	}
	if ss.knee == 0 {
		r.fail("no ladder rung met the knee conditions")
	}
	r.set("setup_s", median(setups))
	r.set("latency_ms_p50", median(p50))
	r.set("latency_ms_tail", median(p99))
	r.set("throughput_tps", ss.knee)
	r.set("fairness_min", 1) // one tenant receives its whole entitlement by definition
	r.setOK()
	r.set("peak_mem_mb", mem)
	logRungs("serve", ss.rungs)
	return nil
}

// serveDurations splits a run of length total between the fixed-rate
// windows (half) and the ladder (the other half).
func serveDurations(total time.Duration) (window, rung time.Duration) {
	return total / (4 * windowReps), total / 2 / time.Duration(len(ladder))
}

func logRungs(depth string, rungs []rung) {
	for _, g := range rungs {
		logf("%s rung %8.0f tasks/s: p50 %.3f p90 %.3f p99 %.3f ms fail %.4f lag p95 %.3f ms backlog client %d engine %d pass %v",
			depth, g.res.rate, g.res.quantileMs(0.5), g.res.quantileMs(0.9), g.res.quantileMs(0.99), g.res.failFrac(),
			float64(g.res.genLag.Quantile(0.95))/1e6, g.res.backlog, g.backlog, g.passes())
	}
	logf("%s knee %.0f tasks/s", depth, knee(rungs))
}
