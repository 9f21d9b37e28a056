package experiments

import (
	"fmt"
	"math/rand"

	"r2t/internal/tpch"
	"r2t/internal/truncation"
)

// PartitionWorkload is one truncation workload whose capacity rows partition
// the LP variables — the single-FK SJA shape the closed-form partition
// truncator serves. cmd/benchjson races the production grid LP against the
// partition path on these and gates on bit-identical values and a >= 5x
// speedup.
type PartitionWorkload struct {
	Name string
	Occ  *truncation.Occurrences
	Taus []float64
}

// PartitionWorkloads builds the fast-path workloads: two real single-primary
// TPC-H queries (Q3's COUNT and Q18's SUM over the Customer hierarchy — every
// join result belongs to exactly one customer) and one synthetic fractional-ψ
// workload that forces the partition truncator's op-for-op emulation regime
// (integral inputs take the O(log n) sorted-prefix formula instead).
func PartitionWorkloads(tpchSF float64) ([]PartitionWorkload, error) {
	var out []PartitionWorkload
	inst := tpch.Generate(tpch.GenOptions{SF: tpchSF, Seed: 1})
	for _, q := range tpch.Queries() {
		if q.Name != "Q3" && q.Name != "Q18" {
			continue
		}
		res, _, err := evalTPCH(q, inst)
		if err != nil {
			return nil, fmt.Errorf("mechbench: %s: %w", q.Name, err)
		}
		o := truncation.FromResult(res)
		if truncation.NewPartitionFromOccurrences(o) == nil {
			return nil, fmt.Errorf("mechbench: %s is not partition-shaped", q.Name)
		}
		out = append(out, PartitionWorkload{
			Name: "tpch-" + q.Name + "-partition",
			Occ:  o,
			Taus: RaceSchedule(1024),
		})
	}

	// Fractional ψ: a skewed ownership distribution with non-integral weights,
	// exercising the emulation regime at a size where the LP's per-τ simplex
	// work dominates.
	rng := rand.New(rand.NewSource(3))
	const nVars, nInd = 40000, 4000
	frac := &truncation.Occurrences{
		NumIndividuals: nInd,
		Sets:           make([][]int32, nVars),
		Psi:            make([]float64, nVars),
	}
	for k := 0; k < nVars; k++ {
		// Quadratic skew concentrates mass on few owners, so truncation bites
		// at every τ of the ladder.
		owner := int32(float64(nInd) * rng.Float64() * rng.Float64())
		if owner >= nInd {
			owner = nInd - 1
		}
		frac.Sets[k] = []int32{owner}
		frac.Psi[k] = 0.25 + 4*rng.Float64()
	}
	if truncation.NewPartitionFromOccurrences(frac) == nil {
		return nil, fmt.Errorf("mechbench: synthetic workload is not partition-shaped")
	}
	out = append(out, PartitionWorkload{
		Name: "synthetic-fracsum-partition",
		Occ:  frac,
		Taus: RaceSchedule(1024),
	})
	return out, nil
}

// SolveLP evaluates the full race schedule through the production simplex
// pipeline, including truncator construction — the end-to-end cost the engine
// pays per query when the fast path is disabled.
func (w PartitionWorkload) SolveLP() ([]float64, error) {
	return truncation.Values(truncation.NewLPFromOccurrences(w.Occ), w.Taus)
}

// SolvePartition is the same schedule through the closed-form partition
// truncator, construction included. Values are bit-identical to SolveLP
// (enforced by cmd/benchjson before recording).
func (w PartitionWorkload) SolvePartition() ([]float64, error) {
	pt := truncation.NewPartitionFromOccurrences(w.Occ)
	if pt == nil {
		return nil, fmt.Errorf("mechbench: %s lost its partition shape", w.Name)
	}
	return truncation.Values(pt, w.Taus)
}
