package main

// The benchmark's open-loop load generator. Arrivals follow a seeded Poisson
// schedule fixed before the run, and each batch is timed from the moment it
// was scheduled to be sent, not from when a sender picked it up: a stalled
// target therefore shows in the latency of every arrival queued behind it.
// An arrival that finds the wait queue full is shed; shed, refused and failed
// batches count as failures and as missing any latency limit.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hdcps/internal/obs"
)

// submitFunc delivers one batch of n tasks and returns how many the target
// admitted. A batch counts as delivered only when all n were admitted and
// err is nil.
type submitFunc func(n int) (int, error)

type loopOpts struct {
	rate     float64 // offered tasks per second
	batch    int     // tasks per arrival
	dur      time.Duration
	seed     int64
	senders  int // concurrent submits: the bound on batches in flight
	queueCap int // arrivals that may wait for a sender before new ones are shed
}

type loopResult struct {
	rate    float64
	offered int64          // arrivals scheduled
	failed  int64          // arrivals shed, refused in part, or failed
	tasks   int64          // tasks admitted
	lat     *obs.Histogram // ns from scheduled send; failures observed as missNs
	genLag  *obs.Histogram // ns each arrival was dispatched behind its schedule
	backlog int            // arrivals queued or in flight when the schedule ended
}

// missNs is the latency a failed arrival is recorded with: beyond any limit.
const missNs = int64(time.Hour)

// valid reports whether the generator kept its schedule: at most 5% of
// arrivals went out more than 1ms late. A generator that falls behind
// measures its own starvation — on a 2-CPU box, a host that deschedules it
// or a target that takes every CPU — not the target's service, so such a
// run is not reported. A kept schedule sends 95% of arrivals within about
// 0.15ms of their time.
func (r loopResult) valid() bool {
	return r.genLag.Quantile(0.95) <= time.Millisecond.Nanoseconds()
}

func (r loopResult) genLagMax() time.Duration { return time.Duration(r.genLag.Max()) }

func (r loopResult) failFrac() float64 {
	if r.offered == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.offered)
}

// quantileMs is the q-quantile latency over every offered arrival, in ms.
func (r loopResult) quantileMs(q float64) float64 {
	return float64(r.lat.Quantile(q)) / 1e6
}

// schedule is the seeded Poisson arrival schedule: offsets from the run's
// start, one per batch.
func schedule(o loopOpts) []time.Duration {
	rng := rand.New(rand.NewSource(o.seed))
	gap := float64(time.Second) * float64(o.batch) / o.rate
	var offs []time.Duration
	for t := rng.ExpFloat64() * gap; t < float64(o.dur); t += rng.ExpFloat64() * gap {
		offs = append(offs, time.Duration(t))
	}
	return offs
}

// sleepUntil blocks until t. nanosleep wakes within ~60µs on Linux, where
// Go's timers round short sleeps up to about a millisecond; that slack is
// part of the generator lag every arrival's latency includes.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// openLoop offers o.rate tasks/s for o.dur through sub and returns once every
// dispatched batch has finished.
func openLoop(sub submitFunc, o loopOpts) loopResult {
	offs := schedule(o)
	res := loopResult{rate: o.rate, offered: int64(len(offs)), lat: obs.NewHistogram(), genLag: obs.NewHistogram()}
	queue := make(chan time.Time, o.queueCap)
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		failed   atomic.Int64
		tasks    atomic.Int64
	)
	for i := 0; i < o.senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range queue {
				inflight.Add(1)
				n, err := sub(o.batch)
				lat := time.Since(due)
				inflight.Add(-1)
				tasks.Add(int64(n))
				if err != nil || n < o.batch {
					failed.Add(1)
					res.lat.Observe(missNs)
					continue
				}
				res.lat.ObserveDuration(lat)
			}
		}()
	}
	start := time.Now()
	for _, off := range offs {
		due := start.Add(off)
		sleepUntil(due)
		res.genLag.ObserveDuration(time.Since(due))
		select {
		case queue <- due:
		default:
			failed.Add(1)
			res.lat.Observe(missNs)
		}
	}
	res.backlog = len(queue) + int(inflight.Load())
	close(queue)
	wg.Wait()
	res.failed = failed.Load()
	res.tasks = tasks.Load()
	return res
}
