package exp

// The drift-timeline experiment is the observability layer's fig-style
// showcase: it runs the native runtime with the adaptive controller on, an
// obs.Recorder attached, and a tight sampling interval, then reports the
// control plane's time series — per-interval drift, reference priority, and
// TDF — so the paper's feedback-convergence story (the controller steering
// the TDF away from its 0.5 starting point as measured drift moves; in the
// runtime, Algorithm 2 behind its supply and resolution guards) can be read
// off real traces instead of a single end-of-run average. With
// Options.TracePath set it also emits the full JSONL trace (recorder meta,
// per-worker counters, sampled events, control series).

import (
	"fmt"
	"os"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
)

// driftTimeline is registered from experiments.go's init so the registry
// keeps paper order regardless of file initialization order.

// driftTimelineRows bounds the formatted table; the JSONL trace always
// carries the full series.
const driftTimelineRows = 40

func driftTimeline(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	w, err := set.workloadFor(Pair{"sssp", "road"})
	if err != nil {
		return Result{}, err
	}
	// Always run a real fleet: drift is a cross-worker signal, and four
	// goroutine workers interleave (and disagree on priorities) even on a
	// single-CPU host, which is exactly what the controller needs to see.
	const workers = 4
	cfg := runtime.DefaultConfig(workers)
	cfg.Seed = o.Seed
	// A tight report interval gives the controller enough feedback steps to
	// show convergence even at reduced input scales (the paper's Fig. 13A
	// sweeps this; 2000-task intervals need billion-task runs).
	cfg.Drift = drift.Config{SampleInterval: 25}
	rec := obs.New(obs.Config{Workers: workers, SampleEvery: 32})
	cfg.Obs = rec

	nr := runtime.Run(w, cfg)
	if err := w.Verify(); err != nil {
		return Result{}, fmt.Errorf("exp: drift-timeline run wrong: %w", err)
	}
	pts := obs.ControlSeries(nr.DriftTrace, nr.RefTrace, nr.TDFTrace)
	if len(pts) == 0 {
		return Result{}, fmt.Errorf("exp: drift-timeline produced no controller intervals (%d tasks)", nr.TasksProcessed)
	}

	res := Result{
		ID:     "drift-timeline",
		Title:  "Native drift/TDF feedback timeline",
		Series: []string{"drift", "ref", "tdf"},
	}
	step := 1
	if len(pts) > driftTimelineRows {
		step = (len(pts) + driftTimelineRows - 1) / driftTimelineRows
		if step%2 == 0 {
			// An odd stride samples both phases of a 2-interval controller
			// oscillation instead of aliasing onto one of them.
			step++
		}
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("interval-%03d", p.Interval),
			Values: map[string]float64{
				"drift": p.Drift, "ref": float64(p.Ref), "tdf": float64(p.TDF),
			},
		})
	}
	moved := false
	for _, p := range pts {
		if p.TDF != cfg.Drift.InitialTDF && p.TDF != drift.DefaultConfig().InitialTDF {
			moved = true
			break
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("controller start TDF %d%% (the paper's 0.5); %d intervals over %d tasks, %d workers",
			drift.DefaultConfig().InitialTDF, len(pts), nr.TasksProcessed, workers),
		fmt.Sprintf("recorder: %d events retained (%d recorded), spills=%d parks=%d",
			len(rec.Events()), rec.EventCount(), rec.Total(obs.COverflowSpills), rec.Total(obs.CIdleParks)))
	if !moved {
		res.Notes = append(res.Notes, "WARNING: TDF never left its initial value — interval too coarse for this scale?")
	}

	if o.TracePath != "" {
		out := os.Stdout
		if o.TracePath != "-" {
			f, err := os.Create(o.TracePath)
			if err != nil {
				return res, fmt.Errorf("exp: drift-timeline trace: %w", err)
			}
			defer f.Close()
			out = f
		}
		if err := rec.WriteJSONL(out); err != nil {
			return res, err
		}
		if err := obs.WriteControlJSONL(out, pts); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "JSONL trace written to "+o.TracePath)
	}
	return res, nil
}
