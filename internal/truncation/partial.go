// Mergeable partition partials for sharded evaluation. A shard evaluates its
// slice of a partition-shaped query (every join result references at most one
// individual — the single-FK SJA shape behind PartitionTruncator) and ships a
// compact Partial: the positive per-individual totals S_j in ascending order,
// the free mass, and the exactness flags. Because the dataset is partitioned
// on the referenced primary key, each individual's join results all live on
// exactly one shard, so the union's {S_j} multiset is precisely the
// concatenation of the per-shard multisets and the union's free mass is the
// sum of the per-shard free masses. MergePartials therefore reconstructs the
// closed form
//
//	Q(I,τ) = Σ_j min(τ, S_j)  +  Σ_{free} ψ_k
//
// for the union of rows without ever shipping rows.
//
// Bit-equality contract: in the integer-exact regime (every ψ a non-negative
// integer, Σψ ≤ 2⁵², τ an integer ≤ 2⁵³ — see partition.go) every
// intermediate on every shard and in the merge is an exact float64 integer,
// so MergedPartition.Value is bit-identical to PartitionTruncator.Value on
// the unsharded union, and a core.Run over the merged operator releases the
// identical estimate for the same noise draws. Outside that regime the merge
// still computes the mathematically exact optimum (the R2T truncator
// properties hold, so privacy and utility are unaffected), but the bits may
// differ from the single-node emulation path at the ulp level; IntExact on
// the merged operator reports which regime applies.
package truncation

import (
	"fmt"
	"math"
	"sort"
)

// Partial is one shard's contribution to a partition-shaped truncator,
// serializable for the router↔shard wire (JSON tags).
type Partial struct {
	// Sorted holds the shard's positive per-individual totals S_j ascending.
	Sorted []float64 `json:"sorted"`
	// Free is Σψ over the shard's variables in no capacity row.
	Free float64 `json:"free"`
	// Total is Σψ over the shard's ψ > 0 variables (the integer-regime bound).
	Total float64 `json:"total"`
	// IntExact reports that every shard-local intermediate was an exact
	// integer (all ψ integral and Total ≤ 2⁵²).
	IntExact bool `json:"int_exact"`
	// Answer is the shard's Q(I) contribution (its TrueAnswer).
	Answer float64 `json:"answer"`
	// TauStar is the shard's max per-individual sensitivity.
	TauStar float64 `json:"tau_star"`
	// NumResults counts the shard's join results with ψ > 0.
	NumResults int `json:"num_results"`
}

// NewPartial builds a shard's Partial from its occurrence sets. It errors in
// exactly the cases where NewPartitionFromOccurrences falls back to the LP
// operator — those shapes have no mergeable closed form.
func NewPartial(o *Occurrences) (*Partial, error) {
	if o.Groups != nil {
		return nil, fmt.Errorf("truncation: projection queries have no partition partial")
	}
	p := &Partial{IntExact: true, Answer: o.TrueAnswer(), TauStar: o.MaxSensitivity()}
	sum := make([]float64, o.NumIndividuals)
	for k, set := range o.Sets {
		w := o.PsiAt(k)
		if w <= 0 {
			continue
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("truncation: invalid ψ %v in partition partial", w)
		}
		if len(set) > 1 {
			return nil, fmt.Errorf("truncation: a join result references %d individuals (not partition-shaped)", len(set))
		}
		// Ascending-k accumulation — the same addition sequence as
		// NewPartitionFromOccurrences, so in the integer regime the bits of
		// S_j match the unsharded build exactly.
		if len(set) == 1 {
			sum[set[0]] += w
		} else {
			p.Free += w
		}
		if w != math.Trunc(w) {
			p.IntExact = false
		}
		p.Total += w
		p.NumResults++
	}
	if p.Total > maxExactTotal {
		p.IntExact = false
	}
	for _, s := range sum {
		if s > 0 {
			p.Sorted = append(p.Sorted, s)
		}
	}
	sort.Float64s(p.Sorted)
	return p, nil
}

// MergedPartition is the closed-form truncator over the union of a set of
// shard Partials. It implements the same Truncator surface as
// PartitionTruncator (and, like it, deliberately does NOT implement the
// early-stop Bounder hook, so core.Run takes the identical code path on both
// the sharded and unsharded sides).
type MergedPartition struct {
	sorted   []float64
	prefix   []float64
	free     float64
	total    float64
	intExact bool
	answer   float64
	tauStar  float64
}

// MergePartials combines per-shard partials into the union truncator. Because
// individuals are partitioned across shards, concatenating and re-sorting the
// per-shard ascending lists reproduces the unsharded sorted {S_j} exactly,
// and the prefix sums — accumulated ascending, the same sequence as the
// unsharded build — come out bit-identical in the integer-exact regime.
func MergePartials(parts []*Partial) (*MergedPartition, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("truncation: no partials to merge")
	}
	m := &MergedPartition{intExact: true}
	n := 0
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("truncation: nil partial at index %d", i)
		}
		n += len(p.Sorted)
	}
	m.sorted = make([]float64, 0, n)
	for _, p := range parts {
		m.sorted = append(m.sorted, p.Sorted...)
		m.free += p.Free
		m.total += p.Total
		m.answer += p.Answer
		if p.TauStar > m.tauStar {
			m.tauStar = p.TauStar
		}
		if !p.IntExact {
			m.intExact = false
		}
	}
	if m.total > maxExactTotal {
		m.intExact = false
	}
	sort.Float64s(m.sorted)
	m.prefix = make([]float64, len(m.sorted)+1)
	for i, s := range m.sorted {
		m.prefix[i+1] = m.prefix[i] + s
	}
	return m, nil
}

// Value returns Q(I,τ) for the union, with the same validation surface as
// PartitionTruncator.Value. Safe for concurrent use (immutable after build).
func (m *MergedPartition) Value(tau float64) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("truncation: negative τ %g", tau)
	}
	if tau == 0 {
		return 0, nil // every variable is capped to zero by its capacity rows
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return 0, fmt.Errorf("truncation: invalid τ %v (must be finite, ≥ 0)", tau)
	}
	// The sorted-prefix formula: bit-identical to the unsharded fast path in
	// the integer-exact regime, mathematically exact always (see package
	// comment for the fractional-ψ ulp caveat).
	i := sort.SearchFloat64s(m.sorted, math.Nextafter(tau, math.Inf(1)))
	capped := float64(len(m.sorted) - i)
	return m.free + m.prefix[i] + tau*capped, nil
}

// TrueAnswer returns Q(I) over the union.
func (m *MergedPartition) TrueAnswer() float64 { return m.answer }

// TauStar returns DS_Q(I) over the union (individuals partition across
// shards, so the max of per-shard maxima is the global max).
func (m *MergedPartition) TauStar() float64 { return m.tauStar }

// IntExact reports whether the merged operator is in the integer-exact
// regime, i.e. whether Value is guaranteed bit-identical to the unsharded
// PartitionTruncator on the union of rows.
func (m *MergedPartition) IntExact() bool { return m.intExact }

// NumCapacityRows reports the number of referenced individuals in the union.
func (m *MergedPartition) NumCapacityRows() int { return len(m.sorted) }

var _ Truncator = (*MergedPartition)(nil)
