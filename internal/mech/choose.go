// The cost-based mechanism chooser. Given ONLY data-independent inputs — the
// query's structure (self-joins, projection, signed split, group-by), the
// public parameters (ε, GS_Q, β, the error target) and a calibrated cost
// model — Choose picks the cheapest backend whose a-priori error bound meets
// the caller's target, falling back to R2T when none qualifies or no target
// was given.
//
// WHY THE DECISION IS LEAK-FREE (DESIGN.md §15): the selected mechanism is a
// deterministic function of (shape, config). Shape comes from the query and
// schema alone; config from the request and the server's fixed cost model.
// Neighboring datasets under the same schema/query/parameters therefore
// select the SAME mechanism — there is no decision-based side channel, and
// the composed release is simply the chosen mechanism's ε-DP release. The
// one sharp edge is calibration: a cost model adapted from live profiles of
// private traffic would make future decisions depend on past data. The
// engine therefore never self-calibrates; CostModelFromProfile exists for
// OFFLINE calibration on public or representative data, and a server uses
// one fixed model per process.
package mech

import (
	"fmt"
	"math"

	"r2t/internal/dp"
	"r2t/internal/obs"
)

// Mechanism names, shared with Options.Mechanism and the r2td API.
const (
	MechAuto     = "auto" // chooser directive: pick per the error target
	MechR2T      = "r2t"
	MechLaplace  = "laplace"
	MechFixedTau = "fixed-tau"
	MechLS       = "ls"
)

// ValidMechanism reports whether name is accepted by Options.Mechanism
// ("" means the r2t default).
func ValidMechanism(name string) bool {
	switch name {
	case "", MechAuto, MechR2T, MechLaplace, MechFixedTau, MechLS:
		return true
	}
	return false
}

// Shape is the data-independent query structure the chooser may see. It is a
// function of the SQL text and the schema only — never of the instance.
type Shape struct {
	SelfJoin   bool // some relation appears in more than one atom
	Projection bool // COUNT(DISTINCT ...): SPJA group rows
	SignedSum  bool // AllowNegativeSum split into Q⁺ − Q⁻
	GroupBy    bool // per-group release with a split budget
}

// Config carries the chooser's parameters.
type Config struct {
	Mechanism   string  // "", auto, r2t, laplace, fixed-tau, ls
	Epsilon     float64 // > 0
	GSQ         float64 // ≥ 2
	Beta        float64 // 0 → 0.1, matching core.Run
	FixedTau    float64 // fixed-tau backend's τ (0 → GS_Q)
	ErrorTarget float64 // auto: largest tolerable (1−β)-probability error; 0 = none
	Cost        *CostModel
}

// Candidate is one backend's a-priori assessment, for ExplainAnalyze.
type Candidate struct {
	Mech       string
	Applicable bool
	Why        string  // why the backend is out, or how it scored
	ErrorBound float64 // a-priori (1−β) absolute error bound (+Inf = none)
	EstCost    float64 // cost-model estimate, nanosecond units
}

// Choice is the chooser's decision.
type Choice struct {
	Mech       string
	Auto       bool    // decided by the chooser, not requested explicitly
	ErrorBound float64 // the chosen backend's a-priori bound
	EstCost    float64 // the chosen backend's estimated cost (ns units)
	Reason     string  // one-line, data-independent explanation
	Candidates []Candidate
}

// applicable reports whether a backend's structural requirements hold for
// the query shape. Purely structural — never looks at data.
func applicable(mech string, s Shape) (bool, string) {
	switch mech {
	case MechR2T:
		return true, "" // valid for every SPJA query
	case MechLaplace, MechFixedTau:
		if s.SignedSum {
			return false, "signed split releases two halves; only r2t composes over them"
		}
		if s.GroupBy {
			return false, "group-by splits the budget per group; only r2t composes over groups"
		}
		return true, ""
	case MechLS:
		if s.SignedSum || s.GroupBy {
			return false, "signed split and group-by require r2t"
		}
		if s.SelfJoin {
			return false, "self-join: naive truncation is not DP-safe (Example 1.2)"
		}
		if s.Projection {
			return false, "projection: naive truncation does not support SPJA"
		}
		return true, ""
	}
	return false, fmt.Sprintf("unknown mechanism %q", mech)
}

// errorBound returns the mechanism's a-priori (1−β)-probability absolute
// error bound — a function of the query shape and public parameters only,
// never the data. +Inf means no useful a-priori bound exists.
func errorBound(mech string, s Shape, cfg Config) float64 {
	L := float64(dp.Log2Ceil(cfg.GSQ))
	switch mech {
	case MechR2T:
		// Theorem 5.1 with the worst case τ* = GS_Q. The instance bound
		// (τ* ≪ GS_Q) is usually far better, but τ* is data — the chooser
		// may only use the a-priori ceiling.
		b := 4 * L * math.Log(L/cfg.Beta) * cfg.GSQ / cfg.Epsilon
		if s.SignedSum {
			// Two halves at ε/2 each (bounds double) whose errors add.
			b *= 4
		}
		return b
	case MechLaplace:
		// Unbiased; |Lap(b)| ≤ b·ln(1/β) with probability 1−β.
		return math.Log(1/cfg.Beta) * cfg.GSQ / cfg.Epsilon
	case MechFixedTau:
		tau := cfg.FixedTau
		if tau == 0 {
			tau = cfg.GSQ
		}
		if tau < cfg.GSQ {
			// τ below the promise: the truncation bias Q(I) − Q(I,τ) has no
			// data-independent bound, so the mechanism never qualifies in
			// auto mode — it is an explicit opt-in.
			return math.Inf(1)
		}
		// τ = GS_Q: zero bias under the promise, pure noise tail.
		return math.Log(1/cfg.Beta) * cfg.GSQ / cfg.Epsilon
	case MechLS:
		// Conservative Appendix A accounting (β split three ways): answer
		// estimate |Lap(4·GSQ/ε)|, SVT slop (2τ+4τ)/ε_svt at τ ≤ GS_Q, and
		// output noise |Lap(4·GSQ/ε)| — ≤ 20·ln(3/β)·GS_Q/ε in total. Its
		// instance error is often far better, but a-priori it is dominated
		// by Laplace, so LS too is effectively an explicit opt-in.
		return 20 * math.Log(3/cfg.Beta) * cfg.GSQ / cfg.Epsilon
	}
	return math.Inf(1)
}

// Choose resolves cfg.Mechanism against the query shape: explicit names are
// validated structurally; "auto" picks the cheapest applicable backend whose
// a-priori bound meets cfg.ErrorTarget, with R2T the fallback. The decision
// is a pure function of (s, cfg) — see the package comment for why that
// matters.
func Choose(s Shape, cfg Config) (*Choice, error) {
	if cfg.Beta == 0 {
		cfg.Beta = 0.1
	}
	model := cfg.Cost
	if model == nil {
		model = DefaultCostModel()
	}
	name := cfg.Mechanism
	if name == "" {
		name = MechR2T // back-compat default: always R2T
	}
	if !ValidMechanism(name) {
		return nil, fmt.Errorf("r2t: unknown mechanism %q (want auto, r2t, laplace, fixed-tau or ls)", name)
	}

	if name != MechAuto {
		ok, why := applicable(name, s)
		if !ok {
			return nil, fmt.Errorf("r2t: mechanism %q does not apply to this query: %s", name, why)
		}
		return &Choice{
			Mech:       name,
			ErrorBound: errorBound(name, s, cfg),
			EstCost:    model.Estimate(name, s, dp.Log2Ceil(cfg.GSQ)),
			Reason:     "requested explicitly",
		}, nil
	}

	// Auto: assess every backend, keep the cheapest that meets the target.
	L := dp.Log2Ceil(cfg.GSQ)
	order := []string{MechLaplace, MechLS, MechFixedTau, MechR2T}
	choice := &Choice{Auto: true}
	bestIdx := -1
	for _, mech := range order {
		c := Candidate{Mech: mech}
		c.Applicable, c.Why = applicable(mech, s)
		if c.Applicable {
			c.ErrorBound = errorBound(mech, s, cfg)
			c.EstCost = model.Estimate(mech, s, L)
		}
		meets := c.Applicable && cfg.ErrorTarget > 0 && c.ErrorBound <= cfg.ErrorTarget
		if c.Applicable && c.Why == "" {
			switch {
			case cfg.ErrorTarget <= 0:
				c.Why = "no error target"
			case meets:
				c.Why = "meets target"
			default:
				c.Why = "a-priori bound exceeds target"
			}
		}
		if meets && (bestIdx < 0 || c.EstCost < choice.Candidates[bestIdx].EstCost) {
			bestIdx = len(choice.Candidates)
		}
		choice.Candidates = append(choice.Candidates, c)
	}
	if bestIdx >= 0 {
		best := choice.Candidates[bestIdx]
		choice.Mech = best.Mech
		choice.ErrorBound = best.ErrorBound
		choice.EstCost = best.EstCost
		choice.Reason = fmt.Sprintf("cheapest backend with a-priori bound %.4g ≤ target %.4g", best.ErrorBound, cfg.ErrorTarget)
		return choice, nil
	}
	// Fallback: R2T, the instance-optimal default (always applicable).
	choice.Mech = MechR2T
	choice.ErrorBound = errorBound(MechR2T, s, cfg)
	choice.EstCost = model.Estimate(MechR2T, s, L)
	if cfg.ErrorTarget <= 0 {
		choice.Reason = "no error target: r2t (instance-optimal) is the default"
	} else {
		choice.Reason = fmt.Sprintf("no cheaper backend meets target %.4g a-priori: falling back to r2t", cfg.ErrorTarget)
	}
	return choice, nil
}

// CostModel holds per-stage cost coefficients (nanoseconds) calibrated from
// the PR 5 stage profiler. Estimates are relative — the chooser only ranks
// backends — so rough coefficients are fine; what matters is that the model
// is FIXED for the lifetime of a serving process (see the package comment).
type CostModel struct {
	TruncBuildNS float64 // occurrence form + LP/naive structure build
	LPSolveNS    float64 // one exact LP evaluation (one race of the grid)
	NaiveValueNS float64 // one naive-truncation Value (binary search)
	NoiseNS      float64 // one Laplace draw
}

// DefaultCostModel returns coefficients in the ratios the repository's
// benchmarks consistently show: LP solves dominate, naive values and noise
// draws are cheap, structure build sits in between.
func DefaultCostModel() *CostModel {
	return &CostModel{
		TruncBuildNS: 200_000,
		LPSolveNS:    500_000,
		NaiveValueNS: 1_000,
		NoiseNS:      100,
	}
}

// CostModelFromProfile calibrates a model from one representative profile
// (Answer.Profile of a Profile:true run), attributing the lp-solve stage
// across its races. OFFLINE use only — calibrate on public or representative
// data and freeze the result; adapting a live model from private traffic
// would couple future decisions to past data (see the package comment).
func CostModelFromProfile(p *obs.Profile, races int) *CostModel {
	m := DefaultCostModel()
	if p == nil {
		return m
	}
	if races <= 0 {
		races = 1
	}
	for _, st := range p.Stages {
		if st.Count <= 0 {
			continue
		}
		switch st.Stage {
		case obs.StageTruncationBuild.String():
			m.TruncBuildNS = float64(st.Duration) / float64(st.Count)
		case obs.StageLPSolve.String():
			m.LPSolveNS = float64(st.Duration) / float64(st.Count) / float64(races)
		case obs.StageNoise.String():
			m.NoiseNS = float64(st.Duration) / float64(st.Count) / float64(races)
		}
	}
	return m
}

// Estimate prices one backend on a query shape: a linear model over the
// per-stage coefficients with the race count L = ⌈log₂ GS_Q⌉. Depends only
// on (mech, s, L) — never on data.
func (m *CostModel) Estimate(mech string, s Shape, L int) float64 {
	l := float64(L)
	halves := 1.0
	if s.SignedSum {
		halves = 2 // two R2T runs over the split halves
	}
	switch mech {
	case MechR2T:
		return halves * (m.TruncBuildNS + l*(m.LPSolveNS+m.NoiseNS))
	case MechFixedTau:
		return m.TruncBuildNS + m.LPSolveNS + m.NoiseNS
	case MechLaplace:
		return m.NoiseNS // Q(I) is a free by-product of the join
	case MechLS:
		// One noisy answer, ≤ L+1 SVT levels (a Value + two draws each), one
		// release.
		return m.TruncBuildNS + (l+2)*m.NaiveValueNS + (2*l+4)*m.NoiseNS
	}
	return math.Inf(1)
}
