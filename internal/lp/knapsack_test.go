package lp

import (
	"math"
	"testing"
)

// knapsack solves the single-constraint LP with fresh result slices; see
// knapsackWS for the semantics.
func knapsack(c, ub []float64, row Row) ([]float64, float64) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	x, y := knapsackWS(c, ub, row, ws)
	return append([]float64(nil), x...), y
}

func TestKnapsackZeroCapacity(t *testing.T) {
	// B = 0: nothing fits, and the dual must still certify optimality — the
	// cap ≤ 0 fallback picks the best unstarted ratio, here 3.
	c := []float64{3, 2}
	ub := []float64{1, 1}
	row := Row{Idx: []int{0, 1}, Coef: []float64{1, 1}, B: 0}
	x, y := knapsack(c, ub, row)
	for k, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", k, v)
		}
	}
	if y != 3 {
		t.Fatalf("dual y = %g, want 3 (highest ratio)", y)
	}
	// Dual feasibility: every reduced cost c_k − y·a_k must be ≤ 0.
	for k := range c {
		if rc := c[k] - y*row.Coef[k]; rc > 0 {
			t.Fatalf("reduced cost of %d positive: %g", k, rc)
		}
	}
}

func TestKnapsackZeroCapacityViaSolve(t *testing.T) {
	// Through the full pipeline a zero-capacity row must yield objective 0
	// with a complete strong-duality certificate.
	p := NewProblem(3)
	p.C = []float64{3, 2, 1}
	p.UB = []float64{1, 4, 2}
	p.AddUnitRow([]int{0, 1, 2}, 0)
	sol := solveOK(t, p)
	if sol.Objective != 0 {
		t.Fatalf("objective = %g, want 0", sol.Objective)
	}
	checkCertificate(t, p, sol)
}

func TestKnapsackExactFitAllAtUpperBound(t *testing.T) {
	// Σ a·ub == B with every item started: capacity is exactly exhausted but
	// no item is cut, so y = 0 closes the duality gap (all reduced costs are
	// absorbed by the bound duals).
	c := []float64{4, 3}
	ub := []float64{1, 2}
	row := Row{Idx: []int{0, 1}, Coef: []float64{2, 1}, B: 4}
	x, y := knapsack(c, ub, row)
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("x = %v, want [1 2]", x)
	}
	if y != 0 {
		t.Fatalf("dual y = %g, want 0", y)
	}
	primal := c[0]*x[0] + c[1]*x[1]
	dual := y*row.B + math.Max(0, c[0]-y*row.Coef[0])*ub[0] + math.Max(0, c[1]-y*row.Coef[1])*ub[1]
	if primal != dual {
		t.Fatalf("duality gap: primal %g, dual %g", primal, dual)
	}
}

func TestKnapsackExactFitWithUnstartedItem(t *testing.T) {
	// The cap ≤ 0 fallback branch: capacity is exhausted exactly at an item
	// boundary while a later item never starts. y = 0 would leave that item's
	// reduced cost positive; the fallback uses the first unstarted ratio.
	c := []float64{4, 3, 2}
	ub := []float64{1, 2, 10}
	row := Row{Idx: []int{0, 1, 2}, Coef: []float64{2, 1, 1}, B: 4}
	x, y := knapsack(c, ub, row)
	// Greedy order by ratio: item 1 (3), item 0 (2), item 2 (2, later index).
	if x[0] != 1 || x[1] != 2 || x[2] != 0 {
		t.Fatalf("x = %v, want [1 2 0]", x)
	}
	if y != 2 {
		t.Fatalf("dual y = %g, want 2 (ratio of the unstarted item)", y)
	}
	primal := 0.0
	dual := y * row.B
	for k := range c {
		primal += c[k] * x[k]
		dual += math.Max(0, c[k]-y*row.Coef[k]) * ub[k]
	}
	if primal != dual {
		t.Fatalf("duality gap: primal %g, dual %g", primal, dual)
	}
	// And the same instance through Solve carries a full certificate.
	p := NewProblem(3)
	copy(p.C, c)
	copy(p.UB, ub)
	p.AddRow(row.Idx, row.Coef, row.B)
	sol := solveOK(t, p)
	checkCertificate(t, p, sol)
}

func TestKnapsackZeroCoefficientVariable(t *testing.T) {
	// A zero coefficient means the row does not constrain the variable: it
	// sits at its upper bound even when the capacity is zero.
	c := []float64{5, 1}
	ub := []float64{3, 1}
	row := Row{Idx: []int{0, 1}, Coef: []float64{0, 1}, B: 0}
	x, y := knapsack(c, ub, row)
	if x[0] != 3 {
		t.Fatalf("x[0] = %g, want ub 3 (unconstrained)", x[0])
	}
	if x[1] != 0 {
		t.Fatalf("x[1] = %g, want 0", x[1])
	}
	if y != 1 {
		t.Fatalf("dual y = %g, want 1", y)
	}
}
