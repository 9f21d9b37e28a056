package lp

import "sort"

// Options tunes Solve and GridSolver.SolveTau.
type Options struct {
	// MaxIters bounds simplex iterations per component; 0 means automatic
	// (generous, scaled to the component size).
	MaxIters int

	// NoCrash starts the simplex from x = 0 instead of the greedy crash
	// point. It is an ablation switch (benchmarked in bench_test.go, and used
	// by the iteration-limit tests to force non-convergence): it changes
	// speed, never the optimum.
	NoCrash bool
}

// Solve computes the exact optimum of a packing LP. It is the one-τ case of
// GridSolver — the problem with no τ-rows — so every exact solve in the
// repository runs one pipeline: presolve → connected-component decomposition
// → per-component solve (greedy fractional knapsack for single-row
// components, bounded-variable revised simplex otherwise). Scratch buffers
// come from a pooled workspace, so concurrent callers reuse allocations. For
// solving the same structure at many capacities (R2T's τ grid), build one
// GridSolver and call SolveTau per τ, which amortizes the presolve and
// decomposition across solves.
func Solve(p *Problem, opt Options) (*Solution, error) {
	g, err := NewGridSolver(p, nil)
	if err != nil {
		return nil, err
	}
	return g.SolveTau(0, opt)
}

// mergeDuplicates canonicalizes a row: a variable listed twice contributes
// the sum of its coefficients once. Downstream code (the simplex column
// store, the knapsack fast path) assumes each variable appears at most once
// per row.
func mergeDuplicates(idx []int, coef []float64) ([]int, []float64) {
	seen := make(map[int]int, len(idx))
	outIdx := make([]int, 0, len(idx))
	outCf := make([]float64, 0, len(coef))
	for j, k := range idx {
		if at, dup := seen[k]; dup {
			outCf[at] += coef[j]
			continue
		}
		seen[k] = len(outIdx)
		outIdx = append(outIdx, k)
		outCf = append(outCf, coef[j])
	}
	return outIdx, outCf
}

// compSolution is a solved component in local indexing.
type compSolution struct {
	status Status
	x      []float64 // per comp.vars
	y      []float64 // per comp.rows
	iters  int
	pivots int
}

// knapItem is one entry of the greedy knapsack ordering.
type knapItem struct {
	k     int
	a     float64
	ratio float64
}

// knapsackWS solves the single-constraint LP exactly by the greedy ratio rule:
// maximize c·x s.t. Σ a_k x_k ≤ b, 0 ≤ x ≤ ub. Returns the optimum (aliasing
// a workspace buffer) and the exact dual of the capacity row.
func knapsackWS(c, ub []float64, row Row, ws *workspace) (x []float64, y float64) {
	x = growF(&ws.outX, len(c))
	for k := range x {
		x[k] = 0
	}
	items := ws.items[:0]
	for j, k := range row.Idx {
		a := row.Coef[j]
		if a <= 0 {
			// Zero coefficient: the variable is unconstrained here.
			x[k] = ub[k]
			continue
		}
		items = append(items, knapItem{k: k, a: a, ratio: c[k] / a})
	}
	ws.items = items
	sort.Slice(items, func(i, j int) bool {
		if items[i].ratio != items[j].ratio {
			return items[i].ratio > items[j].ratio
		}
		return items[i].k < items[j].k
	})
	cap := row.B
	for _, it := range items {
		if cap <= 0 {
			break
		}
		take := ub[it.k]
		need := take * it.a
		if need > cap {
			take = cap / it.a
			need = cap
		}
		x[it.k] = take
		cap -= need
		if take < ub[it.k] {
			// Capacity exhausted on this item: its ratio is the row's dual.
			y = it.ratio
			return x, y
		}
	}
	// All items fit (or trailing items have cap exactly 0): capacity slack or
	// exactly tight with everything at ub → y = 0 is dual feasible only if no
	// leftover item has positive reduced cost; if the capacity is exactly
	// exhausted, use the next item's ratio.
	if cap <= 0 {
		for _, it := range items {
			if x[it.k] == 0 {
				y = it.ratio
				break
			}
		}
	}
	return x, y
}
