// Package lp is a native linear-programming solver for the packing LPs that
// R2T's truncation operators generate (Sections 6–7):
//
//	maximize    Σ_k c_k x_k
//	subject to  Σ_k A_ik x_k ≤ b_i   for every row i      (A_ik ≥ 0, b_i ≥ 0)
//	            0 ≤ x_k ≤ u_k        for every variable k (u_k finite)
//
// The solver is exact (a bounded-variable revised simplex), because R2T's
// privacy proof is a property of the LP *optimum*: an approximation scheme
// could break the τ-Lipschitz property the mechanism relies on. Presolve and
// connected-component decomposition make the method practical: redundant rows
// (Σ coef·u over the row ≤ b) vanish — which is why large-τ races finish
// fastest, exactly as the paper observes — and the remainder splits into
// independent blocks solved separately. A Lagrangian dual bounder provides
// the monotone upper bounds used by R2T's early-stop optimization.
package lp

import (
	"fmt"
	"math"
)

// Row is one ≤ constraint in sparse form.
type Row struct {
	Idx  []int
	Coef []float64
	B    float64
}

// Problem is a packing LP. See the package comment for the exact form.
type Problem struct {
	NumVars int
	C       []float64 // objective coefficients, len NumVars
	UB      []float64 // variable upper bounds, len NumVars, finite, ≥ 0
	Rows    []Row
}

// NewProblem allocates a problem with n variables and zeroed objective/bounds.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, C: make([]float64, n), UB: make([]float64, n)}
}

// AddRow appends the constraint Σ coef[j]·x[idx[j]] ≤ b.
func (p *Problem) AddRow(idx []int, coef []float64, b float64) {
	p.Rows = append(p.Rows, Row{Idx: idx, Coef: coef, B: b})
}

// AddUnitRow appends Σ_{k∈idx} x_k ≤ b (all coefficients 1), the shape every
// truncation constraint takes.
func (p *Problem) AddUnitRow(idx []int, b float64) {
	coef := make([]float64, len(idx))
	for i := range coef {
		coef[i] = 1
	}
	p.AddRow(idx, coef, b)
}

// Validate checks the packing-LP contract.
func (p *Problem) Validate() error {
	if len(p.C) != p.NumVars || len(p.UB) != p.NumVars {
		return fmt.Errorf("lp: C/UB length mismatch with NumVars=%d", p.NumVars)
	}
	for k, u := range p.UB {
		if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("lp: variable %d has invalid upper bound %v (must be finite, ≥ 0)", k, u)
		}
		if math.IsNaN(p.C[k]) || math.IsInf(p.C[k], 0) {
			return fmt.Errorf("lp: variable %d has invalid objective coefficient %v", k, p.C[k])
		}
	}
	for i, r := range p.Rows {
		if len(r.Idx) != len(r.Coef) {
			return fmt.Errorf("lp: row %d has mismatched index/coefficient lengths", i)
		}
		if r.B < 0 || math.IsNaN(r.B) || math.IsInf(r.B, 0) {
			return fmt.Errorf("lp: row %d has invalid bound %v (must be finite, ≥ 0)", i, r.B)
		}
		for j, k := range r.Idx {
			if k < 0 || k >= p.NumVars {
				return fmt.Errorf("lp: row %d references variable %d out of range", i, k)
			}
			if r.Coef[j] < 0 || math.IsNaN(r.Coef[j]) || math.IsInf(r.Coef[j], 0) {
				return fmt.Errorf("lp: row %d has invalid coefficient %v (packing form needs ≥ 0)", i, r.Coef[j])
			}
		}
	}
	return nil
}

// Status reports how a solve ended.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	IterationLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve. The trailing counters are profiling
// metadata: they describe the work performed, never the answer, and carry no
// information beyond what X/Y already determine.
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64 // primal values, len NumVars
	Y          []float64 // dual values per original row (≥ 0); presolved-away rows get 0
	Iters      int       // total simplex iterations across components
	Pivots     int       // basis-changing pivots (excludes bound flips and pricing-only passes)
	Components int       // independent blocks solved (knapsack or simplex)
	// RedundantSkips counts τ-monotone redundancy eliminations taken by
	// GridSolver: whole components fixed at their bounds plus individual rows
	// dropped in the mixed regime. Always 0 from Solve, whose problem has
	// no τ-rows.
	RedundantSkips int
}

// DualObjective evaluates the bounded-variable dual objective
// Σ y_i b_i + Σ_k max(0, c_k − Σ_i y_i A_ik)·u_k for the solution's duals.
// At a true optimum it equals Objective (strong duality) — the optimality
// certificate the tests check.
func (p *Problem) DualObjective(y []float64) float64 {
	d := make([]float64, p.NumVars)
	copy(d, p.C)
	obj := 0.0
	for i, r := range p.Rows {
		obj += y[i] * r.B
		for j, k := range r.Idx {
			d[k] -= y[i] * r.Coef[j]
		}
	}
	for k, dk := range d {
		if dk > 0 {
			obj += dk * p.UB[k]
		}
	}
	return obj
}

// MaxPrimalViolation returns the largest constraint violation of x
// (0 means x is feasible, up to sign conventions).
func (p *Problem) MaxPrimalViolation(x []float64) float64 {
	worst := 0.0
	for k := 0; k < p.NumVars; k++ {
		if v := -x[k]; v > worst {
			worst = v
		}
		if v := x[k] - p.UB[k]; v > worst {
			worst = v
		}
	}
	for _, r := range p.Rows {
		s := 0.0
		for j, k := range r.Idx {
			s += r.Coef[j] * x[k]
		}
		if v := s - r.B; v > worst {
			worst = v
		}
	}
	return worst
}

// Value evaluates the objective at x.
func (p *Problem) Value(x []float64) float64 {
	s := 0.0
	for k := 0; k < p.NumVars; k++ {
		s += p.C[k] * x[k]
	}
	return s
}
