package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/obs"
)

// stallingTarget serves one batch at a time and stalls once, on call stallAt,
// for stall: a single-server target whose queue the open loop must see.
func stallingTarget(stallAt int64, stall time.Duration) submitFunc {
	var mu sync.Mutex
	var calls atomic.Int64
	return func(n int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		if calls.Add(1) == stallAt {
			time.Sleep(stall)
		}
		return n, nil
	}
}

func TestOpenLoopStallShowsInQueuedArrivals(t *testing.T) {
	const stall = 60 * time.Millisecond
	o := loopOpts{rate: 2000, batch: 1, dur: 400 * time.Millisecond, seed: 3, senders: 1, queueCap: 4096}
	res := openLoop(stallingTarget(50, stall), o)
	if res.failed != 0 {
		t.Fatalf("failed %d arrivals, want 0", res.failed)
	}
	// About stall×rate arrivals queue behind the stall; each is timed from
	// its scheduled send, so at least the first half of them wait over a
	// third of the stall. Timing from dispatch would show only the one
	// stalled call.
	slow := countAbove(res, stall/3)
	if want := int64(stall.Seconds() * o.rate / 2); slow < want {
		t.Fatalf("%d arrivals took over %v, want at least %d: the stall did not reach the arrivals queued behind it", slow, stall/3, want)
	}
	if p99 := res.quantileMs(0.99); p99 < ms(stall/3) {
		t.Fatalf("p99 %.2f ms hides a %v stall", p99, stall)
	}
}

func TestOpenLoopShedCountsAsFailedAndMissesLimit(t *testing.T) {
	o := loopOpts{rate: 2000, batch: 4, dur: 200 * time.Millisecond, seed: 5, senders: 1, queueCap: 1}
	res := openLoop(stallingTarget(2, 100*time.Millisecond), o)
	if res.failed == 0 {
		t.Fatal("no arrival was shed behind a 100ms stall with a one-slot queue")
	}
	if res.failFrac() <= 0.01 {
		t.Fatalf("fail fraction %.3f, want the shed share", res.failFrac())
	}
	if p99 := res.lat.Quantile(0.99); p99 < missNs/2 {
		t.Fatalf("p99 %d ns: shed arrivals must count as missing any latency limit", p99)
	}
	if res.tasks != (res.offered-res.failed)*int64(o.batch) {
		t.Fatalf("admitted %d tasks, want %d", res.tasks, (res.offered-res.failed)*int64(o.batch))
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	o := loopOpts{rate: 1e5, batch: 32, dur: time.Second, seed: 11}
	a, b := schedule(o), schedule(o)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of one seed differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// 1e5 tasks/s in batches of 32 is 3125 arrivals/s.
	if n := len(a); n < 2900 || n > 3350 {
		t.Fatalf("%d arrivals in 1s, want about 3125", n)
	}
}

func countAbove(res loopResult, d time.Duration) int64 {
	// The histogram is log-bucketed; walk it by quantiles at 1/offered steps.
	var n int64
	for i := int64(1); i <= res.offered; i++ {
		if res.lat.Quantile(float64(i)/float64(res.offered)) > d.Nanoseconds() {
			n++
		}
	}
	return n
}

// fakeRung is a ladder step with the given generator lag and outcome.
func fakeRung(rate float64, lag time.Duration, pass bool) rung {
	res := loopResult{rate: rate, offered: 1, lat: obs.NewHistogram(), genLag: obs.NewHistogram()}
	res.genLag.ObserveDuration(lag)
	if pass {
		res.lat.ObserveDuration(time.Millisecond)
	} else {
		res.failed = 1
		res.lat.Observe(missNs)
	}
	return rung{res: res}
}

func TestClimbRetriesRungsWhoseGeneratorFellBehind(t *testing.T) {
	// The first two rates starve the generator once each, then pass; a host
	// stall at the bottom of the ladder must not end the climb with no knee.
	calls := map[float64]int{}
	rungs, err := climb(func(rate float64, _ time.Duration, _ int64) (rung, error) {
		calls[rate]++
		switch {
		case rate <= ladder[1] && calls[rate] == 1:
			return fakeRung(rate, 5*time.Millisecond, true), nil
		case rate <= ladder[3]:
			return fakeRung(rate, 0, true), nil
		default:
			return fakeRung(rate, 0, false), nil
		}
	}, time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := knee(rungs); got != ladder[3] {
		t.Fatalf("knee %v, want %v", got, ladder[3])
	}
	if calls[ladder[0]] != 2 || calls[ladder[1]] != 2 {
		t.Fatalf("runs of the first two rates %d, %d, want 2, 2", calls[ladder[0]], calls[ladder[1]])
	}
	if len(rungs) != 8 { // 2+2 for the first two rates, 2 passes, 2 misses
		t.Fatalf("%d rungs measured, want 8", len(rungs))
	}
}

func TestClimbSkipsRungThatNeverKeepsSchedule(t *testing.T) {
	calls := 0
	rungs, err := climb(func(rate float64, _ time.Duration, _ int64) (rung, error) {
		calls++
		if rate == ladder[0] {
			return fakeRung(rate, 5*time.Millisecond, false), nil
		}
		return fakeRung(rate, 0, rate <= ladder[2]), nil
	}, time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := knee(rungs); got != ladder[2] {
		t.Fatalf("knee %v, want %v", got, ladder[2])
	}
	if calls != rungAttempts+4 {
		t.Fatalf("%d runs, want %d", calls, rungAttempts+4)
	}
}
