// Package drift implements the paper's central signal and heuristic:
// priority drift (Equation 1) and the feedback-driven task-distribution-
// factor controller (Algorithms 2 and 3, §III-C), plus the dynamic-oracle
// TDF search used as the heuristic's upper bound (§III-C, Fig. 12).
package drift

import "math"

// Drift computes Equation 1 over one interval's per-core priority reports:
// the mean absolute difference between each core's latest task priority and
// the reference priority. ref should be the globally highest priority (the
// numerically smallest report); Reports' callers typically pass
// MinReference(reports).
func Drift(reports []int64, ref int64) float64 {
	if len(reports) == 0 {
		return 0
	}
	var sum float64
	for _, p := range reports {
		d := p - ref
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(reports))
}

// MinReference returns the highest priority (smallest value) among the
// reports, the paper's P0. It returns 0 for an empty slice.
func MinReference(reports []int64) int64 {
	if len(reports) == 0 {
		return 0
	}
	ref := reports[0]
	for _, p := range reports[1:] {
		if p < ref {
			ref = p
		}
	}
	return ref
}

// Decision records whether the controller last moved the TDF up or down.
type Decision int

const (
	// Increase means the adjustment raised (or will raise) the TDF. It is
	// the zero value, making it Config.OnImprove's default.
	Increase Decision = iota
	// Decrease means the adjustment lowered (or will lower) the TDF.
	Decrease
)

// Config holds the controller's tunable parameters, with the paper's
// empirically chosen defaults (§V-E, Fig. 13).
type Config struct {
	// InitialTDF is the task distribution factor (percent of enqueues sent
	// to random remote cores) used before the first feedback. Paper: 50.
	InitialTDF int
	// Step is the TDF change per interval, in percentage points. Paper: 10.
	Step int
	// MinTDF and MaxTDF bound the controller. The paper notes TDF must stay
	// non-zero so distribution keeps load-balancing the cores.
	MinTDF, MaxTDF int
	// SampleInterval is the number of tasks a core processes between
	// reports to the master core (Algorithm 3's send_threshold). The paper
	// uses 2000 on billion-task runs; the default here is 200 so that a
	// reduced-scale run still gives the controller a comparable number of
	// feedback updates (Fig. 13A sweeps this parameter).
	SampleInterval int
	// OnImprove selects the adjustment applied when drift improves.
	// Algorithm 2's pseudocode and its prose contradict each other here
	// (see the Controller comment); the default, Increase, follows the
	// prose and keeps distribution load-balancing the cores. The native
	// runtime runs Algorithm 2, and so this reading, only in intervals where
	// no worker starves and drift is at least one priority unit; its control
	// plane steps the TDF up or down itself otherwise (Controller.Nudge).
	OnImprove Decision
}

// DefaultConfig returns the paper's tuned parameters.
func DefaultConfig() Config {
	return Config{
		InitialTDF: 50, Step: 10, MinTDF: 5, MaxTDF: 95,
		SampleInterval: 200, OnImprove: Increase,
	}
}

// sanitized fills zero fields with defaults so a partially specified Config
// behaves sensibly.
func (c Config) sanitized() Config {
	d := DefaultConfig()
	if c.InitialTDF <= 0 {
		c.InitialTDF = d.InitialTDF
	}
	if c.Step <= 0 {
		c.Step = d.Step
	}
	if c.MaxTDF <= 0 {
		c.MaxTDF = d.MaxTDF
	}
	if c.MinTDF <= 0 {
		c.MinTDF = d.MinTDF
	}
	if c.MinTDF > c.MaxTDF {
		c.MinTDF = c.MaxTDF
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = d.SampleInterval
	}
	return c
}

// Controller is the feedback TDF heuristic of Algorithm 2. Each sampling
// interval the master core feeds it the cores' priority reports; the
// controller compares the interval's drift with the previous one and nudges
// the TDF one step up or down.
//
// Note on Algorithm 2: the paper's prose for the improving-drift case
// contradicts its pseudocode (the prose says the TDF "is always increased",
// the pseudocode decreases it). Config.OnImprove selects the reading; the
// default follows the prose — improving drift raises the TDF — because the
// paper also stresses that distribution must keep load-balancing the cores,
// and the pseudocode reading starves concentrated workloads by walking the
// TDF to its floor. The worsening-drift cases steer it back either way.
//
// Controller is not safe for concurrent use; in HD-CPS only the master core
// updates it (the heuristic is non-blocking for all other cores, which keep
// using the previous TDF until the new value propagates).
type Controller struct {
	cfg      Config
	tdf      int
	pdPrev   float64
	havePrev bool
	prev     Decision
	history  []Record
	invalid  int64
}

// Record is one interval's controller state, kept for drift traces and the
// oracle comparison. Ref is the reference priority (Equation 1's P0) the
// interval's drift was computed against; callers that feed UpdateDrift a
// precomputed drift leave it zero.
type Record struct {
	Drift float64
	Ref   int64
	TDF   int
}

// NewController returns a controller with cfg (zero fields take defaults).
func NewController(cfg Config) *Controller {
	c := cfg.sanitized()
	return &Controller{cfg: c, tdf: clamp(c.InitialTDF, c.MinTDF, c.MaxTDF), prev: Increase}
}

// Config returns the sanitized configuration in effect.
func (c *Controller) Config() Config { return c.cfg }

// TDF returns the current task distribution factor in percent.
func (c *Controller) TDF() int { return c.tdf }

// History returns a copy of the per-interval drift and TDF records
// accumulated so far. Returning a copy keeps the controller's internal
// trace safe from callers that append to or mutate the result.
func (c *Controller) History() []Record {
	return append([]Record(nil), c.history...)
}

// Update runs one Algorithm 2 step from the cores' priority reports and
// returns the TDF for the next interval.
func (c *Controller) Update(reports []int64) int {
	ref := MinReference(reports)
	return c.UpdateWithRef(Drift(reports, ref), ref)
}

// UpdateDrift is Update for callers that have already computed the drift
// (the interval record's Ref stays zero).
func (c *Controller) UpdateDrift(pd float64) int { return c.UpdateWithRef(pd, 0) }

// InvalidSamples reports how many drift samples were rejected and clamped
// (NaN, infinite, or negative) since the controller was built. A task
// handler that emits garbage priorities corrupts Equation 1's signal; the
// controller sanitizes at the boundary instead of walking its TDF off a
// poisoned comparison.
func (c *Controller) InvalidSamples() int64 { return c.invalid }

// sanitizeDrift clamps an invalid drift sample. NaN and -Inf fall back to
// the previous interval's drift (no signal → hold the comparison steady);
// +Inf and negative values clamp to the nearest representable valid value.
func (c *Controller) sanitizeDrift(pd float64) float64 {
	switch {
	case math.IsNaN(pd), math.IsInf(pd, -1):
		c.invalid++
		if c.havePrev {
			return c.pdPrev
		}
		return 0
	case math.IsInf(pd, +1):
		c.invalid++
		return math.MaxFloat64
	case pd < 0:
		c.invalid++
		return 0
	}
	return pd
}

// UpdateWithRef runs one controller step from a precomputed drift and the
// reference priority it was measured against, keeping both in the interval
// record so time-series consumers can reconstruct the feedback loop.
// Invalid drifts (NaN/Inf/negative) are clamped first; see InvalidSamples.
func (c *Controller) UpdateWithRef(pd float64, ref int64) int {
	pd = c.sanitizeDrift(pd)
	defer c.record(pd, ref)
	if !c.havePrev {
		return c.tdf // first interval: nothing to compare against
	}
	switch {
	case pd >= c.pdPrev && c.prev == Increase:
		// Drift worsened after raising TDF: more communication did not
		// help, back off (Alg. 2 lines 5-7).
		c.setTDF(c.tdf - c.cfg.Step)
		c.prev = Decrease
	case pd >= c.pdPrev && c.prev == Decrease:
		// Drift worsened after lowering TDF: restore communication
		// (Alg. 2 lines 8-10).
		c.setTDF(c.tdf + c.cfg.Step)
		c.prev = Increase
	default: // pd < pdPrev
		// Drift improving: apply the configured reading of Alg. 2
		// lines 11-13 (see the type comment).
		if c.cfg.OnImprove == Increase {
			c.setTDF(c.tdf + c.cfg.Step)
			c.prev = Increase
		} else {
			c.setTDF(c.tdf - c.cfg.Step)
			c.prev = Decrease
		}
	}
	return c.tdf
}

// Nudge moves the TDF one step in direction d without consulting
// Algorithm 2, for a caller that has its own reason to override the
// heuristic this interval. The interval is recorded like any other, and the
// step becomes the previous decision with pd the previous drift, so a later
// UpdateWithRef judges the nudge exactly as it would have judged its own
// step. Invalid drifts are clamped as in UpdateWithRef.
func (c *Controller) Nudge(d Decision, pd float64, ref int64) int {
	pd = c.sanitizeDrift(pd)
	if d == Increase {
		c.setTDF(c.tdf + c.cfg.Step)
	} else {
		c.setTDF(c.tdf - c.cfg.Step)
	}
	c.prev = d
	c.record(pd, ref)
	return c.tdf
}

// record appends the interval's record and makes pd the drift the next
// interval is compared against.
func (c *Controller) record(pd float64, ref int64) {
	c.history = append(c.history, Record{Drift: pd, Ref: ref, TDF: c.tdf})
	c.pdPrev = pd
	c.havePrev = true
}

func (c *Controller) setTDF(v int) {
	c.tdf = clamp(v, c.cfg.MinTDF, c.cfg.MaxTDF)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
