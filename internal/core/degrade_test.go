package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/fault"
)

// flakyTruncator is a fakeTruncator whose Value fails or panics at chosen τ.
type flakyTruncator struct {
	fakeTruncator
	failAt  map[float64]bool
	panicAt map[float64]bool
}

func (f *flakyTruncator) Value(tau float64) (float64, error) {
	if f.panicAt[tau] {
		panic(fmt.Sprintf("synthetic panic at τ=%g", tau))
	}
	if f.failAt[tau] {
		return 0, fmt.Errorf("synthetic failure at τ=%g", tau)
	}
	return f.fakeTruncator.Value(tau)
}

func degradeCfg(workers int) Config {
	return Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}, Degrade: true, Workers: workers}
}

func TestDegradeSkipsFailedRaceAndMatchesMaxOverSurvivors(t *testing.T) {
	// With zero noise the estimate is max_j Q(I,τ_j) − penalty·τ_j over the
	// surviving races; killing one race must yield exactly the max over the
	// other seven, computed from the healthy truncator by hand.
	healthy := &fakeTruncator{answer: 1000, tauStar: 8}
	L := 8.0
	penalty := L * math.Log(L/0.1)
	for _, workers := range []int{1, 4} {
		for j := 1; j <= 8; j++ {
			failTau := math.Pow(2, float64(j))
			tr := &flakyTruncator{
				fakeTruncator: *healthy,
				failAt:        map[float64]bool{failTau: true},
			}
			out, err := Run(tr, degradeCfg(workers))
			if err != nil {
				t.Fatalf("workers=%d failτ=%g: %v", workers, failTau, err)
			}
			if !out.Degraded {
				t.Fatalf("workers=%d failτ=%g: Degraded not set", workers, failTau)
			}
			want := 0.0
			for k := 1; k <= 8; k++ {
				tau := math.Pow(2, float64(k))
				if tau == failTau {
					continue
				}
				v, _ := healthy.Value(tau)
				if cand := v - penalty*tau; cand > want {
					want = cand
				}
			}
			if math.Abs(out.Estimate-want) > 1e-9 {
				t.Fatalf("workers=%d failτ=%g: estimate %g, want %g", workers, failTau, out.Estimate, want)
			}
			var failed *Race
			for i := range out.Races {
				if out.Races[i].Failed {
					if failed != nil {
						t.Fatal("more than one failed race recorded")
					}
					failed = &out.Races[i]
				}
			}
			if failed == nil || failed.Tau != failTau || !strings.Contains(failed.Err, "synthetic failure") {
				t.Fatalf("failed race record wrong: %+v", failed)
			}
		}
	}
}

func TestDegradeOffStillPropagatesErrors(t *testing.T) {
	tr := &flakyTruncator{
		fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
		failAt:        map[float64]bool{8: true},
	}
	cfg := degradeCfg(1)
	cfg.Degrade = false
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("without Degrade a race failure must fail the run")
	}
}

func TestPanicInRaceIsContained(t *testing.T) {
	tr := &flakyTruncator{
		fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
		panicAt:       map[float64]bool{16: true},
	}
	// Degrade off: the panic becomes an error, never an escaped panic.
	cfg := degradeCfg(1)
	cfg.Degrade = false
	_, err := Run(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("contained panic should surface as an error, got %v", err)
	}
	// Degrade on: the panicking race is skipped like any other failure.
	for _, workers := range []int{1, 4} {
		out, err := Run(tr, degradeCfg(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !out.Degraded {
			t.Fatalf("workers=%d: Degraded not set", workers)
		}
	}
}

func TestPanicOutsideRacesIsContained(t *testing.T) {
	// A panic in the noise source fires before any race runs; the whole-run
	// recover must convert it to an error.
	defer fault.Reset()
	fault.Enable("dp.laplace", fault.Rule{Panic: "noise source corrupted"})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	cfg := degradeCfg(1)
	cfg.Noise = dp.NewSource(1) // ZeroNoise bypasses the dp.laplace site
	_, err := Run(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "panic during run") {
		t.Fatalf("want contained run panic, got %v", err)
	}
}

func TestAllRacesFailedIsAnErrorNotAFloorRelease(t *testing.T) {
	fail := make(map[float64]bool)
	for j := 1; j <= 8; j++ {
		fail[math.Pow(2, float64(j))] = true
	}
	tr := &flakyTruncator{fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8}, failAt: fail}
	for _, workers := range []int{1, 4} {
		_, err := Run(tr, degradeCfg(workers))
		if err == nil || !strings.Contains(err.Error(), "no race survived") {
			t.Fatalf("workers=%d: want no-survivor error, got %v", workers, err)
		}
	}
}

func TestCoreRaceFaultSite(t *testing.T) {
	// The core.race failpoint kills whichever race hits it; under Degrade
	// the run survives and reports exactly one skipped race.
	defer fault.Reset()
	fault.Enable("core.race", fault.Rule{OnHit: 1})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	out, err := Run(tr, degradeCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range out.Races {
		if r.Failed {
			failed++
		}
	}
	if !out.Degraded || failed != 1 {
		t.Fatalf("degraded=%v failed=%d, want one skipped race", out.Degraded, failed)
	}
}
