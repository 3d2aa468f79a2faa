// Command perfbench is the repository benchmark: one workload per run, driven
// from outside the program through its public packages and the hdcps-serve
// binary. It prints every metric by name with its unit and, as its last line,
// one JSON object {correct, attempted, failed, metrics}. Any wrong output
// (a failed Verify, an unbalanced ledger, a lost task, an unclean server
// drain) makes the run exit 1.
//
//	perfbench -workload solve-road-sssp -seed 1 -seconds 15 -trace 0
//	perfbench -compare a.json,b.json
//
// See README.md for the workloads, the metrics and which layer moves which.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"sort"
	"strings"
	"time"
)

// nproc bounds every fleet and connection count: the benchmark never asks for
// more engine workers or streams than the box has CPUs.
var nproc = stdruntime.NumCPU()

type workloadFunc func(r *run) error

var workloads = map[string]workloadFunc{
	"solve-road-sssp":  runSolve,
	"tenants-sssp-421": runTenants,
	"serve-refresh":    runServe,
}

// run is one benchmark invocation: its inputs, the metrics it has measured
// so far, and its operation and correctness accounting.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	serveBin string
	outDir   string

	decl      map[string]string // metric name → unit, from BENCHMARK.json for this mode
	metrics   map[string]float64
	attempted int64
	failed    int64
	wrong     []string // correctness failures
	fp        fingerprint
	spans     *spanLog
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// fail records a wrong output; the run still finishes measuring so the
// report names every failure, but it exits non-zero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.wrong = append(r.wrong, msg)
	fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload name: solve-road-sssp, tenants-sssp-421, serve-refresh")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed (inputs and arrival schedules derive from it)")
		seconds  = flag.Int("seconds", 15, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		serveBin = flag.String("serve-bin", "", "path to the hdcps-serve binary under test")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark spec declaring the metric names and units")
		outDir   = flag.String("out", ".bench_build/results", "directory for the full result and trace files")
		compare  = flag.String("compare", "", "a.json,b.json: compare two result files (fails unless their fingerprints match)")
	)
	flag.Parse()
	if *compare != "" {
		os.Exit(compareResults(*compare))
	}
	fn, ok := workloads[*wl]
	if !ok {
		logf("unknown -workload %q", *wl)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("-seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	decl, err := loadSpec(*spec, *trace == 1)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	r := &run{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		serveBin: *serveBin,
		outDir:   *outDir,
		decl:     decl,
		metrics:  map[string]float64{},
		spans:    newSpanLog(),
	}
	r.fp = newFingerprint(r)
	if err := fn(r); err != nil {
		// The workload could not be measured at all (a missing binary, a
		// server that never became ready): no result line.
		logf("%s: %v", r.workload, err)
		os.Exit(1)
	}
	os.Exit(r.report())
}

// report checks that exactly the declared metrics were measured, prints them,
// writes the full result file, and returns the exit code.
func (r *run) report() int {
	for name := range r.decl {
		if _, ok := r.metrics[name]; !ok {
			r.fail("metric %s was not measured", name)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name, v := range r.metrics {
		if _, ok := r.decl[name]; !ok {
			r.fail("metric %s is not declared in the spec", name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no encoding for it; a metric that could not be
			// measured fails the run instead of breaking the result line.
			r.fail("metric %s is %v", name, v)
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(names))
	for _, name := range names {
		v := value{r.metrics[name], r.decl[name]}
		ms[name] = v
		fmt.Printf("%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	correct := len(r.wrong) == 0
	fmt.Printf("fingerprint %s\n", r.fp.String())

	if err := r.writeResult(ms, correct); err != nil {
		logf("writing result file: %v", err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func (r *run) writeResult(ms any, correct bool) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, b2i(r.trace)))
	buf, err := json.MarshalIndent(result{
		Fingerprint: r.fp,
		Correct:     correct,
		Wrong:       r.wrong,
		Attempted:   r.attempted,
		Failed:      r.failed,
		Metrics:     ms,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", buf, 0o644); err != nil {
		return err
	}
	if r.trace {
		return r.spans.write(base + ".spans.jsonl")
	}
	return nil
}

// loadSpec reads the metric names and units the spec declares for one mode:
// the end-to-end metrics for untraced runs, the per-layer ones for traced.
func loadSpec(path string, traced bool) (map[string]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("parsing spec %s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	decl := make(map[string]string, len(list))
	for _, m := range list {
		decl[m.Name] = m.Unit
	}
	if len(decl) == 0 {
		return nil, fmt.Errorf("spec %s declares no metrics", path)
	}
	return decl, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result is the full record written beside the printed line; -compare reads
// two of them.
type result struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Wrong       []string    `json:"wrong,omitempty"`
	Attempted   int64       `json:"attempted"`
	Failed      int64       `json:"failed"`
	Metrics     any         `json:"metrics"`
}

// compareResults prints the per-metric ratio of two result files. Results
// measured under different configurations are not comparable: it refuses
// them, naming every differing field, and returns 1.
func compareResults(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		logf("-compare takes two comma-separated result files")
		return 2
	}
	type file struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Metrics     map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	var fs [2]file
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			logf("%v", err)
			return 2
		}
		if err := json.Unmarshal(buf, &fs[i]); err != nil {
			logf("%s: %v", p, err)
			return 2
		}
	}
	if diff := fs[0].Fingerprint.configDiff(fs[1].Fingerprint); len(diff) > 0 {
		logf("results are not comparable, their configurations differ: %s", strings.Join(diff, "; "))
		return 1
	}
	names := make([]string, 0, len(fs[0].Metrics))
	for name := range fs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := fs[0].Metrics[name]
		b, ok := fs[1].Metrics[name]
		if !ok {
			fmt.Printf("%-34s %14.6g -> (missing)\n", name, a.Value)
			continue
		}
		ratio := "n/a"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(b.Value/a.Value-1))
		}
		fmt.Printf("%-34s %14.6g -> %-14.6g %s %s\n", name, a.Value, b.Value, a.Unit, ratio)
	}
	return 0
}
