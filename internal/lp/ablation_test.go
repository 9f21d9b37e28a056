package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestAblationsPreserveOptimum verifies the ablation switch (NoCrash)
// changes only speed, never results: both settings agree on random packing
// LPs and on the structured wedge instances.
func TestAblationsPreserveOptimum(t *testing.T) {
	combos := []Options{
		{},
		{NoCrash: true},
	}
	check := func(t *testing.T, p *Problem) {
		t.Helper()
		var ref float64
		for i, opt := range combos {
			sol, err := Solve(p, opt)
			if err != nil {
				t.Fatalf("combo %d: %v", i, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("combo %d: status %v", i, sol.Status)
			}
			if v := p.MaxPrimalViolation(sol.X); v > 1e-6 {
				t.Fatalf("combo %d: violation %g", i, v)
			}
			if i == 0 {
				ref = sol.Objective
				continue
			}
			if math.Abs(sol.Objective-ref) > 1e-6*(1+math.Abs(ref)) {
				t.Fatalf("combo %d: objective %g differs from reference %g", i, sol.Objective, ref)
			}
		}
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		check(t, randomProblem(rng))
	}
	for _, tau := range []float64{2, 8, 32} {
		check(t, wedgeProblem(60, 3, tau, 5))
	}
	check(t, cliqueLP(5, 2))
	check(t, starLP(16, 4))
}
