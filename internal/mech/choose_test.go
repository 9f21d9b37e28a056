package mech

import (
	"math"
	"strings"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/obs"
)

func TestValidMechanism(t *testing.T) {
	for _, name := range []string{"", MechAuto, MechR2T, MechLaplace, MechFixedTau, MechLS} {
		if !ValidMechanism(name) {
			t.Errorf("ValidMechanism(%q) = false", name)
		}
	}
	for _, name := range []string{"lapalce", "R2T", "naive", "auto "} {
		if ValidMechanism(name) {
			t.Errorf("ValidMechanism(%q) = true", name)
		}
	}
}

func TestChooseDefaultIsR2T(t *testing.T) {
	c, err := Choose(Shape{}, Config{Epsilon: 1, GSQ: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if c.Mech != MechR2T || c.Auto {
		t.Fatalf("empty mechanism: got %q auto=%v, want explicit r2t", c.Mech, c.Auto)
	}
}

func TestChooseUnknownMechanism(t *testing.T) {
	if _, err := Choose(Shape{}, Config{Mechanism: "bogus", Epsilon: 1, GSQ: 16}); err == nil {
		t.Fatal("want error for unknown mechanism")
	}
}

func TestChooseStructuralRejections(t *testing.T) {
	cases := []struct {
		mech  string
		shape Shape
	}{
		{MechLaplace, Shape{SignedSum: true}},
		{MechLaplace, Shape{GroupBy: true}},
		{MechFixedTau, Shape{SignedSum: true}},
		{MechFixedTau, Shape{GroupBy: true}},
		{MechLS, Shape{SelfJoin: true}},
		{MechLS, Shape{Projection: true}},
		{MechLS, Shape{SignedSum: true}},
		{MechLS, Shape{GroupBy: true}},
	}
	for _, tc := range cases {
		_, err := Choose(tc.shape, Config{Mechanism: tc.mech, Epsilon: 1, GSQ: 16})
		if err == nil {
			t.Errorf("%s on %+v: want structural rejection", tc.mech, tc.shape)
			continue
		}
		if !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%s: unexpected error %v", tc.mech, err)
		}
	}
	// r2t applies to every shape.
	for _, s := range []Shape{{}, {SelfJoin: true}, {Projection: true}, {SignedSum: true}, {GroupBy: true}} {
		if _, err := Choose(s, Config{Mechanism: MechR2T, Epsilon: 1, GSQ: 16}); err != nil {
			t.Errorf("r2t on %+v: %v", s, err)
		}
	}
}

func TestChooseAutoNoTargetFallsBackToR2T(t *testing.T) {
	c, err := Choose(Shape{}, Config{Mechanism: MechAuto, Epsilon: 1, GSQ: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if c.Mech != MechR2T || !c.Auto {
		t.Fatalf("auto without target: got %q auto=%v, want r2t fallback", c.Mech, c.Auto)
	}
	if len(c.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(c.Candidates))
	}
}

func TestChooseAutoLooseTargetPicksLaplace(t *testing.T) {
	// Laplace's bound ln(1/β)·GSQ/ε ≈ 2358 at ε=1, GSQ=1024, β=0.1; any
	// target above it should select the cheapest qualifying backend (laplace).
	c, err := Choose(Shape{}, Config{Mechanism: MechAuto, Epsilon: 1, GSQ: 1024, ErrorTarget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if c.Mech != MechLaplace {
		t.Fatalf("loose target: got %q (reason %q), want laplace", c.Mech, c.Reason)
	}
	if c.ErrorBound > 5000 {
		t.Fatalf("chosen bound %g exceeds target", c.ErrorBound)
	}
}

func TestChooseAutoTightTargetFallsBackToR2T(t *testing.T) {
	// A target below every a-priori bound: nothing qualifies, r2t is the
	// instance-optimal fallback (its instance error can still beat the
	// a-priori ceiling).
	c, err := Choose(Shape{}, Config{Mechanism: MechAuto, Epsilon: 1, GSQ: 1024, ErrorTarget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Mech != MechR2T {
		t.Fatalf("tight target: got %q, want r2t fallback", c.Mech)
	}
}

func TestChooseAutoSignedSumAlwaysR2T(t *testing.T) {
	// Under the signed split only r2t applies, whatever the target.
	for _, target := range []float64{0, 10, 1e12} {
		c, err := Choose(Shape{SignedSum: true}, Config{Mechanism: MechAuto, Epsilon: 1, GSQ: 64, ErrorTarget: target})
		if err != nil {
			t.Fatal(err)
		}
		if c.Mech != MechR2T {
			t.Fatalf("signed auto target=%g: got %q", target, c.Mech)
		}
	}
}

func TestChooseDeterministic(t *testing.T) {
	// The decision is a pure function of (shape, config): any two calls with
	// equal inputs agree exactly. This is the data-independence property the
	// server's pre-charge check and the engine's in-run choice rely on.
	shapes := []Shape{{}, {SelfJoin: true}, {Projection: true}, {SignedSum: true}}
	cfgs := []Config{
		{Mechanism: MechAuto, Epsilon: 1, GSQ: 1024},
		{Mechanism: MechAuto, Epsilon: 0.5, GSQ: 4096, ErrorTarget: 1e5},
		{Mechanism: MechR2T, Epsilon: 2, GSQ: 16},
	}
	for _, s := range shapes {
		for _, cfg := range cfgs {
			a, errA := Choose(s, cfg)
			b, errB := Choose(s, cfg)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%+v/%+v: err mismatch %v vs %v", s, cfg, errA, errB)
			}
			if errA != nil {
				continue
			}
			if a.Mech != b.Mech || a.ErrorBound != b.ErrorBound || a.EstCost != b.EstCost || a.Reason != b.Reason {
				t.Fatalf("%+v/%+v: decisions differ: %+v vs %+v", s, cfg, a, b)
			}
		}
	}
}

func TestErrorBounds(t *testing.T) {
	cfg := Config{Epsilon: 1, GSQ: 1024, Beta: 0.1}
	L := float64(dp.Log2Ceil(cfg.GSQ))

	r2t := errorBound(MechR2T, Shape{}, cfg)
	want := 4 * L * math.Log(L/0.1) * 1024
	if math.Abs(r2t-want) > 1e-9*want {
		t.Fatalf("r2t bound %g, want %g", r2t, want)
	}
	if got := errorBound(MechR2T, Shape{SignedSum: true}, cfg); got != 4*r2t {
		t.Fatalf("signed r2t bound %g, want 4·%g", got, r2t)
	}
	if got := errorBound(MechLaplace, Shape{}, cfg); got != math.Log(10)*1024 {
		t.Fatalf("laplace bound %g", got)
	}
	// fixed-tau below the promise has no a-priori bound.
	low := cfg
	low.FixedTau = 8
	if got := errorBound(MechFixedTau, Shape{}, low); !math.IsInf(got, 1) {
		t.Fatalf("fixed-tau τ<GSQ bound %g, want +Inf", got)
	}
	if got := errorBound(MechFixedTau, Shape{}, cfg); got != math.Log(10)*1024 {
		t.Fatalf("fixed-tau τ=GSQ bound %g", got)
	}
	if got := errorBound(MechLS, Shape{}, cfg); got != 20*math.Log(30)*1024 {
		t.Fatalf("ls bound %g", got)
	}
}

func TestCostModelEstimateOrdering(t *testing.T) {
	m := DefaultCostModel()
	s := Shape{}
	L := 10
	lap := m.Estimate(MechLaplace, s, L)
	ft := m.Estimate(MechFixedTau, s, L)
	ls := m.Estimate(MechLS, s, L)
	r2t := m.Estimate(MechR2T, s, L)
	if !(lap < ls && ls < ft && ft < r2t) {
		t.Fatalf("cost ordering broken: lap=%g ls=%g ft=%g r2t=%g", lap, ls, ft, r2t)
	}
	// The signed split doubles R2T's price.
	if got := m.Estimate(MechR2T, Shape{SignedSum: true}, L); got != 2*r2t {
		t.Fatalf("signed r2t cost %g, want 2·%g", got, r2t)
	}
}

func TestCostModelFromProfile(t *testing.T) {
	if m := CostModelFromProfile(nil, 5); *m != *DefaultCostModel() {
		t.Fatal("nil profile must return the default model")
	}
	p := &obs.Profile{Stages: []obs.StageTiming{
		{Stage: obs.StageTruncationBuild.String(), Count: 2, Duration: 2_000_000},
		{Stage: obs.StageLPSolve.String(), Count: 1, Duration: 5_000_000},
		{Stage: obs.StageNoise.String(), Count: 1, Duration: 1_000},
	}}
	m := CostModelFromProfile(p, 10)
	if m.TruncBuildNS != 1_000_000 {
		t.Fatalf("TruncBuildNS = %g", m.TruncBuildNS)
	}
	if m.LPSolveNS != 500_000 {
		t.Fatalf("LPSolveNS = %g", m.LPSolveNS)
	}
	if m.NoiseNS != 100 {
		t.Fatalf("NoiseNS = %g", m.NoiseNS)
	}
}
