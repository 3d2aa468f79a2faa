package runtime

import (
	"slices"
	"testing"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
)

// A fast worker completing a whole report interval alone must not drag the
// other workers' never-reported (zero-valued) slots into the drift
// snapshot: before the sentinel fix, three phantom zeros against priority
// 1000 fabricated a drift of 750 and steered the controller's first moves.
func TestControlPlaneExcludesNeverReported(t *testing.T) {
	cfg := Config{Workers: 4, UseTDF: true}.withDefaults()
	cp := newControlPlane(cfg)
	for i := 0; i < 4; i++ {
		cp.Report(0, 0, 1000)
	}
	h := cp.History()
	if len(h) != 1 {
		t.Fatalf("controller updates %d, want 1 (interval completes at 4 reports)", len(h))
	}
	if h[0].Drift != 0 {
		t.Fatalf("drift %v, want 0: never-reported workers leaked into the snapshot", h[0].Drift)
	}
}

func TestControlPlaneFullSnapshotDrift(t *testing.T) {
	cfg := Config{Workers: 4, UseTDF: true}.withDefaults()
	cp := newControlPlane(cfg)
	for i, p := range []int64{100, 200, 300, 400} {
		cp.Report(i, 0, p)
	}
	h := cp.History()
	if len(h) != 1 {
		t.Fatalf("controller updates %d, want 1", len(h))
	}
	// Eq. 1: mean |p - min| = (0 + 100 + 200 + 300) / 4.
	if h[0].Drift != 150 {
		t.Fatalf("drift %v, want 150", h[0].Drift)
	}
}

func TestControlPlaneFixedTDF(t *testing.T) {
	cfg := Config{Workers: 2, FixedTDF: 70}.withDefaults()
	cp := newControlPlane(cfg)
	if cp.TDF() != 70 {
		t.Fatalf("TDF %d, want 70", cp.TDF())
	}
	cp.Report(0, 0, 5)
	cp.Report(1, 0, 10)
	if cp.TDF() != 70 {
		t.Fatalf("fixed TDF moved to %d", cp.TDF())
	}
	if h := cp.History(); len(h) != 0 {
		t.Fatalf("fixed-TDF plane ran the controller: %v", h)
	}

	// Unset FixedTDF defaults to 100 (always distribute).
	cp2 := newControlPlane(Config{Workers: 2}.withDefaults())
	if cp2.TDF() != 100 {
		t.Fatalf("default fixed TDF %d, want 100", cp2.TDF())
	}
}

// A handler that emits a priority at or above the never-reported sentinel,
// or at or below its negation, used to flow straight into the drift
// snapshot, where it collides with the sentinel or overflows Equation 1's
// |p - ref|. Report must clamp such priorities into the band at the
// boundary, count them, and keep the drift signal finite.
func TestControlPlaneClampsOutOfRangePriorities(t *testing.T) {
	rec := obs.New(obs.Config{Workers: 2})
	cfg := Config{Workers: 2, UseTDF: true, Obs: rec}.withDefaults()
	cp := newControlPlane(cfg)

	cp.Report(0, 0, -neverReported-5) // below the band: clamps to -neverReported+1
	cp.Report(1, 0, neverReported+7)  // sentinel collision: clamps to neverReported-1
	if got := cp.Clamped(); got != 2 {
		t.Fatalf("clamped = %d, want 2", got)
	}
	if got := rec.Total(obs.CDriftClamped); got != 2 {
		t.Fatalf("obs CDriftClamped = %d, want 2", got)
	}
	h := cp.History()
	if len(h) != 1 {
		t.Fatalf("controller updates %d, want 1", len(h))
	}
	// Snapshot is {-neverReported+1, neverReported-1}: drift is finite and
	// the reference is the clamped negative, not the raw garbage.
	if h[0].Ref != -neverReported+1 {
		t.Fatalf("reference %d, want clamped %d", h[0].Ref, -neverReported+1)
	}
	if want := float64(neverReported - 1); h[0].Drift != want {
		t.Fatalf("drift %v, want %v", h[0].Drift, want)
	}

	// In-range reports don't touch the counter, negative ones included.
	cp.Report(0, 0, -100)
	cp.Report(1, 0, 200)
	if got := cp.Clamped(); got != 2 {
		t.Fatalf("in-range report counted as clamped: %d", got)
	}
}

func TestControlPlaneAdaptive(t *testing.T) {
	cfg := Config{Workers: 2, UseTDF: true, Drift: drift.Config{InitialTDF: 50, Step: 10}}.withDefaults()
	cp := newControlPlane(cfg)
	if cp.TDF() != 50 {
		t.Fatalf("initial TDF %d, want 50", cp.TDF())
	}
	// First interval records a baseline, second (improving drift, default
	// OnImprove=Increase) raises the TDF.
	cp.Report(0, 0, 100)
	cp.Report(1, 0, 300) // drift 100
	cp.Report(0, 0, 100)
	cp.Report(1, 0, 150) // drift 25: improved
	if cp.TDF() != 60 {
		t.Fatalf("TDF %d after improving drift, want 60", cp.TDF())
	}
	if len(cp.History()) != 2 {
		t.Fatalf("history %d entries, want 2", len(cp.History()))
	}
}

// report completes one two-worker interval whose drift is d (Equation 1
// over {base, base+2d}) against reference base.
func report(cp *controlPlane, base int64, d int64) {
	cp.Report(0, 0, base)
	cp.Report(1, 0, base+2*d)
}

func tdfSeries(h []drift.Record) []int {
	s := make([]int, len(h))
	for i, r := range h {
		s[i] = r.TDF
	}
	return s
}

// Supply guard: a starving worker steps the TDF up whatever the drift says
// — here Algorithm 2 (pseudocode reading) would step down on the improving
// drift, and the resolution guard down on the sub-unit one.
func TestControlPlaneSupplyGuard(t *testing.T) {
	cfg := Config{Workers: 2, UseTDF: true, Drift: drift.Config{InitialTDF: 50, Step: 10, OnImprove: drift.Decrease}}.withDefaults()
	cp := newControlPlane(cfg)
	report(cp, 100, 100) // baseline: Algorithm 2 holds
	cp.setIdle(1, true)
	report(cp, 100, 25) // improved drift
	report(cp, 100, 0)  // sub-unit drift
	cp.setIdle(1, false)
	report(cp, 100, 0) // no worker starving: resolution guard steps down
	want := []int{50, 60, 70, 60}
	if got := tdfSeries(cp.History()); !slices.Equal(got, want) {
		t.Fatalf("TDF series %v, want %v", got, want)
	}
}

// Resolution guard: drift below one priority unit with no starving worker
// walks the TDF down to MinTDF and holds it there; Algorithm 2 then resumes
// from the guard's last step (worsening drift after a decrease steps up).
func TestControlPlaneResolutionGuard(t *testing.T) {
	cfg := Config{Workers: 2, UseTDF: true, Drift: drift.Config{InitialTDF: 50, Step: 10, MinTDF: 5}}.withDefaults()
	cp := newControlPlane(cfg)
	for i := 0; i < 10; i++ {
		cp.Report(0, 0, 40)
		cp.Report(1, 0, 41) // drift 0.5
	}
	want := []int{40, 30, 20, 10, 5, 5, 5, 5, 5, 5}
	if got := tdfSeries(cp.History()); !slices.Equal(got, want) {
		t.Fatalf("TDF series %v, want %v", got, want)
	}
	report(cp, 40, 3) // drift worsened after a decrease: Algorithm 2 restores
	if got := cp.TDF(); got != 15 {
		t.Fatalf("TDF %d after Algorithm 2 resumed, want 15", got)
	}
}

// With drift at least one unit and no starving worker the guards stay out
// of the way: the plane's TDF series is exactly Algorithm 2's on the same
// drifts. The reports are negative, as PageRank's and coloring's are, and
// must reach the controller unclamped.
func TestControlPlaneAlgorithm2Unguarded(t *testing.T) {
	cfg := Config{Workers: 2, UseTDF: true}.withDefaults()
	cp := newControlPlane(cfg)
	ref := drift.NewController(cfg.Drift)
	drifts := []int64{5, 3, 3, 8, 1, 1, 2, 9, 4, 4, 4, 6, 2, 7, 1, 3, 3, 12, 5, 2}
	var want []int
	for _, d := range drifts {
		report(cp, -1000, d)
		want = append(want, ref.UpdateDrift(float64(d)))
	}
	h := cp.History()
	if got := tdfSeries(h); !slices.Equal(got, want) {
		t.Fatalf("TDF series %v, want Algorithm 2's %v", got, want)
	}
	if h[0].Ref != -1000 || h[0].Drift != 5 || cp.Clamped() != 0 {
		t.Fatalf("negative priorities altered: ref %d drift %v clamped %d", h[0].Ref, h[0].Drift, cp.Clamped())
	}
}
