package experiments

import (
	"fmt"
	"math"

	"r2t/internal/dp"
	"r2t/internal/graph"
	"r2t/internal/lp"
	"r2t/internal/tpch"
	"r2t/internal/truncation"
)

// GridWorkload is one τ-grid benchmarking workload: the occurrence form of a
// query, its LP truncator, and the race schedule R2T would solve for the
// configured GS_Q. It backs BenchmarkR2TGrid and cmd/benchjson, which compare
// a per-race rebuild of the LP against the amortized grid solver.
type GridWorkload struct {
	Name string
	Occ  *truncation.Occurrences
	Tr   *truncation.LPTruncator
	Taus []float64
}

// RaceSchedule returns R2T's τ ladder for a global sensitivity bound:
// 2^1, …, 2^⌈log2 GSQ⌉.
func RaceSchedule(gsq float64) []float64 {
	n := dp.Log2Ceil(gsq)
	taus := make([]float64, n)
	for j := 1; j <= n; j++ {
		taus[j-1] = math.Pow(2, float64(j))
	}
	return taus
}

// GridWorkloads builds the benchmark workloads: triangle counting on a social
// graph and edge counting on a road grid (the paper's graph patterns, Q△ and
// Q1-) plus one multi-way TPC-H join. These are the amortization-bound sizes:
// per-race problem construction and presolve are a large share of the cold
// cost, which is the regime the grid solver targets. Hub-heavy wedge LPs are
// pivot-bound instead (see DESIGN.md, "Grid solving") and gain
// little from structure sharing, so they are not recorded here.
func GridWorkloads(tpchSF float64) ([]GridWorkload, error) {
	var out []GridWorkload
	add := func(name string, o *truncation.Occurrences, gsq float64) {
		out = append(out, GridWorkload{
			Name: name,
			Occ:  o,
			Tr:   truncation.NewLPFromOccurrences(o),
			Taus: RaceSchedule(gsq),
		})
	}

	social := graph.GenSocial(300, 1200, 64, 3)
	add("graph-triangles", &truncation.Occurrences{
		NumIndividuals: social.N,
		Sets:           graph.Occurrences(social, graph.Triangles),
	}, 1024)

	road := graph.GenRoad(8, 10, 2)
	add("graph-edges", &truncation.Occurrences{
		NumIndividuals: road.N,
		Sets:           graph.Occurrences(road, graph.Edges),
	}, 1024)

	inst := tpch.Generate(tpch.GenOptions{SF: tpchSF, Seed: 1})
	for _, q := range tpch.Queries() {
		if q.Name != "Q5" {
			continue
		}
		res, _, err := evalTPCH(q, inst)
		if err != nil {
			return nil, fmt.Errorf("gridbench: %s: %w", q.Name, err)
		}
		add("tpch-q5", truncation.FromResult(res), 1024)
	}
	return out, nil
}

// SolveCold evaluates every race with nothing shared across τ: materialize
// one packing LP per race and lp.Solve it, which builds a one-τ GridSolver
// (presolve, decomposition) for that race alone before solving.
func (w GridWorkload) SolveCold() ([]float64, error) {
	out := make([]float64, len(w.Taus))
	for i, tau := range w.Taus {
		sol, err := lp.Solve(coldProblem(w.Occ, tau), lp.Options{})
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("gridbench: τ=%g not optimal", tau)
		}
		out[i] = sol.Objective
	}
	return out, nil
}

// SolveGrid evaluates the whole schedule through the amortized production
// path (shared skeleton, τ-monotone redundancy, pooled workspaces). Results
// are bit-identical to SolveCold.
func (w GridWorkload) SolveGrid() ([]float64, error) {
	return truncation.Values(w.Tr, w.Taus)
}

// coldProblem rebuilds the per-τ truncation LP from occurrence form, the
// same problem LPTruncator's skeleton represents at that τ: one variable
// per positive-ψ occurrence (c = 1, ub = ψ), one fixed row per projection
// group, one τ-capacity row per individual.
func coldProblem(o *truncation.Occurrences, tau float64) *lp.Problem {
	varOf := make([]int, len(o.Sets))
	nv := 0
	for k := range o.Sets {
		varOf[k] = -1
		if o.PsiAt(k) > 0 {
			varOf[k] = nv
			nv++
		}
	}
	p := lp.NewProblem(nv)
	for k := range o.Sets {
		if v := varOf[k]; v >= 0 {
			p.C[v] = 1
			p.UB[v] = o.PsiAt(k)
		}
	}
	if o.Groups != nil {
		for l, group := range o.Groups {
			var vars []int
			for _, k := range group {
				if varOf[k] >= 0 {
					vars = append(vars, varOf[k])
				}
			}
			p.AddUnitRow(vars, o.GroupPsi[l])
		}
	}
	cap := make([][]int, o.NumIndividuals)
	for k, set := range o.Sets {
		v := varOf[k]
		if v < 0 {
			continue
		}
		for _, j := range set {
			cap[j] = append(cap[j], v)
		}
	}
	for _, row := range cap {
		if len(row) > 0 {
			p.AddUnitRow(row, tau)
		}
	}
	return p
}
