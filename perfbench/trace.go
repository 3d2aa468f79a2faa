package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	stdruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hdcps/internal/obs"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation share its parent chain.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out once, at exit, so
// recording costs no I/O inside a measured window.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id and the
// function that closes it.
func (l *spanLog) begin(parent int64, name string) (int64, func()) {
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	start := time.Since(l.t0).Nanoseconds()
	return id, func() {
		end := time.Since(l.t0).Nanoseconds()
		l.mu.Lock()
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		l.mu.Unlock()
	}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedWorkload times every Process call of the wrapped workload: the total
// is the fleet's busy time, and every eighth node's calls feed the latency
// histogram (a fixed node subset, so sampling needs no shared counter).
type timedWorkload struct {
	workload.Workload
	busyNs atomic.Int64
	hist   *obs.Histogram
}

func newTimed(w workload.Workload) *timedWorkload {
	return &timedWorkload{Workload: w, hist: obs.NewHistogram()}
}

func (w *timedWorkload) Process(t task.Task, emit func(task.Task)) int {
	t0 := time.Now()
	n := w.Workload.Process(t, emit)
	d := time.Since(t0).Nanoseconds()
	w.busyNs.Add(d)
	if t.Node&7 == 0 {
		w.hist.Observe(d)
	}
	return n
}

// resetBusy starts a new busy-time measurement; the histogram keeps
// accumulating across runs.
func (w *timedWorkload) resetBusy() { w.busyNs.Store(0) }

// peakMemMB is the high-water resident set of process pid (0: this process).
func peakMemMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU is the user+system CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(buf)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// stolen is the CPU time the hypervisor has taken from this machine's CPUs
// so far, summed over CPUs: the steal column of /proc/stat's cpu line. It
// stays 0 on bare metal.
func stolen() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// timeNetOfSteal runs op and returns its wall time, and the same less the
// time the hypervisor stole while it ran, averaged over the machine's CPUs.
// On a shared virtual machine the host takes whole CPUs away in bursts of
// 10–40ms and, when busy, for a third of a run or more; a solve slowed that
// way measured the host. Steal is counted in 10ms ticks, so the net time of
// one operation is exact to ±10ms/nproc; medians over many operations
// average the rounding out.
func timeNetOfSteal(op func()) (net, wall time.Duration) {
	s0 := stolen()
	t0 := time.Now()
	op()
	wall = time.Since(t0)
	st := stolen() - s0
	return max(wall-st/time.Duration(stdruntime.NumCPU()), 0), wall
}

// selfCPU is the user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the linear-interpolated q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
