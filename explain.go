package r2t

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"r2t/internal/exec"
	"r2t/internal/mech"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
)

// Explanation describes how a query would be evaluated: the completed join
// (Section 3.2), which atoms identify protected individuals, and the
// residual predicates. It reveals nothing about the data — only the query
// and schema — so it is safe to show freely.
type Explanation struct {
	Query       string   // normalized SQL
	Aggregate   string   // COUNT(*), COUNT(DISTINCT), SUM
	Atoms       []string // one line per atom of the completed join
	Filters     []string // residual predicates evaluated on join results
	Projection  bool     // SPJA (duplicate-removing projection) or SJA
	PrivateAtom []string // atoms whose PK identifies a protected individual
	SelfJoin    bool     // some relation appears more than once
}

// String renders the explanation as an indented report.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:      %s\n", e.Query)
	fmt.Fprintf(&b, "aggregate:  %s", e.Aggregate)
	if e.Projection {
		b.WriteString(" (SPJA: projection removes duplicates; τ* = IS_Q)")
	}
	b.WriteString("\ncompleted join:\n")
	for _, a := range e.Atoms {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	if len(e.Filters) > 0 {
		b.WriteString("filters:\n")
		for _, f := range e.Filters {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	fmt.Fprintf(&b, "protected individuals identified by: %s\n", strings.Join(e.PrivateAtom, ", "))
	if e.SelfJoin {
		b.WriteString("self-join present: naive truncation would violate DP (Example 1.2); the LP operator is required\n")
	}
	return b.String()
}

// SensitivityProfile summarizes the per-individual sensitivities of one
// query on the current instance — the distribution of S_Q(I, t_P). It is
// NON-PRIVATE (computed directly from the data) and intended for offline
// analysis by the data owner, e.g. to sanity-check a GS_Q promise against
// representative data before any release.
type SensitivityProfile struct {
	Individuals int     // referenced primary-private tuples
	JoinResults int     // |J(I)|
	TrueAnswer  float64 // Q(I)
	Max         float64 // DS_Q (SJA) / IS_Q (SPJA)
	Mean        float64
	Median      float64
	P95         float64
}

// Sensitivities evaluates the query and returns the NON-PRIVATE sensitivity
// profile. Do not release any of it; use it to choose public parameters
// from representative (non-sensitive) data.
func (db *DB) Sensitivities(sqlText string, primary []string) (*SensitivityProfile, error) {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: primary})
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(p, db.instance)
	if err != nil {
		return nil, err
	}
	var sens []float64
	for _, s := range res.SensitivityByTuple() {
		sens = append(sens, s)
	}
	sort.Float64s(sens)
	prof := &SensitivityProfile{
		Individuals: len(sens),
		JoinResults: len(res.Rows),
		TrueAnswer:  res.TrueAnswer(),
		Max:         res.MaxTupleSensitivity(),
	}
	if len(sens) > 0 {
		total := 0.0
		for _, s := range sens {
			total += s
		}
		prof.Mean = total / float64(len(sens))
		prof.Median = medianOf(sens)
		prof.P95 = percentileOf(sens, 0.95)
	}
	return prof, nil
}

// medianOf returns the median of a sorted sample: the middle element for odd
// n, the mean of the two middle elements for even n. (Indexing sens[n/2]
// would upper-bias every even-sized sample.)
func medianOf(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentileOf returns the nearest-rank p-th percentile of a sorted sample:
// the smallest element with at least ⌈p·n⌉ of the sample at or below it,
// i.e. index ⌈p·n⌉−1. (The old int(p*n) indexing over-shot by one whenever
// p·n was integral — P95 of 100 samples read sorted[95], the 96th value,
// instead of sorted[94]; of 20 samples, sorted[19], the maximum, instead of
// sorted[18].)
func percentileOf(sorted []float64, p float64) float64 {
	n := len(sorted)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// ExplainAnalyze renders an evaluated Answer's stage profile EXPLAIN
// ANALYZE-style: end-to-end wall time, the per-stage breakdown with work
// counters, and the join/race shape of the run. The answer must come from a
// query with Options.Profile set; without a profile only the summary lines
// render. Everything here except Estimate is a NON-PRIVATE diagnostic — show
// it to the data curator, never alongside a release.
func ExplainAnalyze(ans *Answer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "duration:      %v (end to end)\n", ans.Duration)
	if ans.Mechanism != "" {
		fmt.Fprintf(&b, "mechanism:     %s", ans.Mechanism)
		if ans.MechReason != "" {
			fmt.Fprintf(&b, " (%s)", ans.MechReason)
		}
		if ans.MechBound > 0 && !math.IsInf(ans.MechBound, 1) {
			fmt.Fprintf(&b, "; a-priori error bound %.4g", ans.MechBound)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "join results:  %d rows, %d protected individuals\n", ans.NumResults, ans.Individuals)
	fmt.Fprintf(&b, "races:         %d", len(ans.Races))
	if ans.WinnerTauNeg != 0 {
		fmt.Fprintf(&b, " (signed split; winners τ⁺=%g τ⁻=%g)", ans.WinnerTau, ans.WinnerTauNeg)
	} else if ans.WinnerTau != 0 {
		fmt.Fprintf(&b, " (winner τ=%g)", ans.WinnerTau)
	}
	b.WriteString("\n")
	if ans.Profile == nil {
		b.WriteString("no stage profile: run the query with Options.Profile\n")
		return b.String()
	}
	b.WriteString(ans.Profile.String())
	if gap := ans.Duration - ans.Profile.StageTotal(); gap > 0 {
		fmt.Fprintf(&b, "unattributed:  %v (work between stages)\n", gap)
	}
	return b.String()
}

// Explain lowers a query without touching any data and reports the completed
// join structure the provenance will be computed over.
func (db *DB) Explain(sqlText string, primary []string) (*Explanation, error) {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: primary})
	if err != nil {
		return nil, err
	}
	return explain(parsed, p), nil
}

// ExplainChoice is Explain plus the mechanism Query would release with under
// opt, resolved by the same data-independent chooser without touching any
// data — so a caller that charges ε can reject an inapplicable mechanism
// before the charge.
func (db *DB) ExplainChoice(sqlText string, opt Options) (*Explanation, *mech.Choice, error) {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: opt.Primary})
	if err != nil {
		return nil, nil, err
	}
	choice, err := chooseFor(p, opt, false)
	if err != nil {
		return nil, nil, err
	}
	return explain(parsed, p), choice, nil
}

func explain(parsed *sql.Query, p *plan.Plan) *Explanation {
	e := &Explanation{
		Query:      parsed.String(),
		Aggregate:  parsed.Agg.String(),
		Projection: len(p.ProjVars) > 0,
		SelfJoin:   p.SelfJoin(),
	}
	for i, a := range p.Atoms {
		vars := make([]string, len(a.Vars))
		for j, v := range a.Vars {
			vars[j] = fmt.Sprintf("$%d", v)
		}
		origin := ""
		if a.Completed {
			origin = "   [added by query completion]"
		}
		e.Atoms = append(e.Atoms, fmt.Sprintf("%s AS %s(%s)%s", a.Rel.Name, a.Alias, strings.Join(vars, ", "), origin))
		if p.PrivPK[i] >= 0 {
			e.PrivateAtom = append(e.PrivateAtom, fmt.Sprintf("%s.$%d", a.Alias, p.PrivPK[i]))
		}
	}
	for _, f := range p.Filters {
		e.Filters = append(e.Filters, sql.ExprString(f.Expr))
	}
	return e
}
