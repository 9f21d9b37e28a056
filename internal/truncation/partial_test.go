package truncation

import (
	"math"
	"math/rand"
	"testing"
)

// splitByOwner partitions an occurrence instance across k shards by hashing
// the owning individual, renaming individuals densely per shard (ascending,
// mirroring FromResult's deterministic rename). Free rows (no individual) go
// to shard 0 — any placement is valid, the free mass just sums.
func splitByOwner(o *Occurrences, k int) []*Occurrences {
	owner := func(j int32) int { return int((uint32(j) * 2654435761) % uint32(k)) }
	shards := make([]*Occurrences, k)
	renames := make([]map[int32]int32, k)
	for s := range shards {
		shards[s] = &Occurrences{}
		renames[s] = make(map[int32]int32)
	}
	// Dense per-shard individual ids, assigned in ascending global order so
	// the per-shard order matches FromResult's sorted rename.
	for j := int32(0); j < int32(o.NumIndividuals); j++ {
		s := owner(j)
		renames[s][j] = int32(shards[s].NumIndividuals)
		shards[s].NumIndividuals++
	}
	for kIdx, set := range o.Sets {
		s := 0
		var renamed []int32
		if len(set) == 1 {
			s = owner(set[0])
			renamed = []int32{renames[s][set[0]]}
		}
		shards[s].Sets = append(shards[s].Sets, renamed)
		shards[s].Psi = append(shards[s].Psi, o.PsiAt(kIdx))
	}
	return shards
}

func randomPartitionInstance(rng *rand.Rand, integral bool) *Occurrences {
	n := 1 + rng.Intn(40)
	rows := rng.Intn(300)
	o := &Occurrences{NumIndividuals: n}
	for k := 0; k < rows; k++ {
		var set []int32
		if rng.Float64() < 0.9 {
			set = []int32{int32(rng.Intn(n))}
		}
		var w float64
		if integral {
			w = float64(rng.Intn(12)) // includes ψ = 0 rows (dropped as variables)
		} else {
			w = rng.Float64() * 10
		}
		o.Sets = append(o.Sets, set)
		o.Psi = append(o.Psi, w)
	}
	return o
}

// TestPartialMergeBitIdentical: for integer-weight instances, the merged
// operator over owner-partitioned shards must reproduce the unsharded
// PartitionTruncator bit for bit across the whole τ grid — the invariant the
// router's release path stands on.
func TestPartialMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	taus := []float64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128, 1024, 1 << 20}
	for trial := 0; trial < 60; trial++ {
		o := randomPartitionInstance(rng, true)
		ref := NewPartitionFromOccurrences(o)
		if ref == nil {
			t.Fatal("reference instance unexpectedly not partition-shaped")
		}
		for _, k := range []int{1, 2, 4} {
			var parts []*Partial
			for _, so := range splitByOwner(o, k) {
				p, err := NewPartial(so)
				if err != nil {
					t.Fatalf("NewPartial: %v", err)
				}
				parts = append(parts, p)
			}
			m, err := MergePartials(parts)
			if err != nil {
				t.Fatalf("MergePartials: %v", err)
			}
			if !m.IntExact() {
				t.Fatalf("trial %d k=%d: integer instance not IntExact", trial, k)
			}
			if m.TrueAnswer() != ref.TrueAnswer() {
				t.Fatalf("trial %d k=%d: TrueAnswer %v != %v", trial, k, m.TrueAnswer(), ref.TrueAnswer())
			}
			if m.TauStar() != ref.TauStar() {
				t.Fatalf("trial %d k=%d: TauStar %v != %v", trial, k, m.TauStar(), ref.TauStar())
			}
			for _, tau := range taus {
				got, err := m.Value(tau)
				if err != nil {
					t.Fatalf("merged Value(%g): %v", tau, err)
				}
				want, err := ref.Value(tau)
				if err != nil {
					t.Fatalf("ref Value(%g): %v", tau, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d k=%d τ=%g: merged %v != unsharded %v", trial, k, tau, got, want)
				}
			}
			gv, err := Values(m, taus)
			if err != nil {
				t.Fatalf("merged Values: %v", err)
			}
			for i, tau := range taus {
				want, _ := ref.Value(tau)
				if math.Float64bits(gv[i]) != math.Float64bits(want) {
					t.Fatalf("trial %d k=%d Values[%d] τ=%g: %v != %v", trial, k, i, tau, gv[i], want)
				}
			}
		}
	}
}

// TestPartialMergeFractional: outside the integer regime the merge still
// computes the mathematically exact optimum (within float addition
// reassociation), and reports IntExact=false.
func TestPartialMergeFractional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		o := randomPartitionInstance(rng, false)
		ref := NewPartitionFromOccurrences(o)
		var parts []*Partial
		for _, so := range splitByOwner(o, 3) {
			p, err := NewPartial(so)
			if err != nil {
				t.Fatalf("NewPartial: %v", err)
			}
			parts = append(parts, p)
		}
		m, err := MergePartials(parts)
		if err != nil {
			t.Fatalf("MergePartials: %v", err)
		}
		if m.IntExact() {
			t.Fatal("fractional instance reported IntExact")
		}
		for _, tau := range []float64{0.5, 1.7, 4, 100} {
			got, err := m.Value(tau)
			if err != nil {
				t.Fatalf("merged Value(%g): %v", tau, err)
			}
			want, err := ref.Value(tau)
			if err != nil {
				t.Fatalf("ref Value(%g): %v", tau, err)
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d τ=%g: merged %v too far from %v", trial, tau, got, want)
			}
		}
	}
}

func TestPartialRejectsUnmergeableShapes(t *testing.T) {
	if _, err := NewPartial(&Occurrences{Groups: [][]int{{0}}, GroupPsi: []float64{1}}); err == nil {
		t.Fatal("projection instance accepted")
	}
	selfJoin := &Occurrences{NumIndividuals: 2, Sets: [][]int32{{0, 1}}}
	if _, err := NewPartial(selfJoin); err == nil {
		t.Fatal("multi-individual set accepted")
	}
	bad := &Occurrences{NumIndividuals: 1, Sets: [][]int32{{0}}, Psi: []float64{math.NaN()}}
	if _, err := NewPartial(bad); err == nil {
		t.Fatal("NaN ψ accepted")
	}
	if _, err := MergePartials(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergePartials([]*Partial{nil}); err == nil {
		t.Fatal("nil partial accepted")
	}
}

func TestMergedPartitionValueValidation(t *testing.T) {
	p, err := NewPartial(&Occurrences{NumIndividuals: 1, Sets: [][]int32{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergePartials([]*Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Value(-1); err == nil {
		t.Fatal("negative τ accepted")
	}
	if _, err := m.Value(math.NaN()); err == nil {
		t.Fatal("NaN τ accepted")
	}
	if _, err := m.Value(math.Inf(1)); err == nil {
		t.Fatal("+Inf τ accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Values(m, []float64{1, bad}); err == nil {
			t.Fatalf("Values with τ=%v accepted", bad)
		}
	}
	if v, err := m.Value(0); err != nil || v != 0 {
		t.Fatalf("Value(0) = %v, %v; want 0, nil", v, err)
	}
}
