package core

import (
	"math"
	"testing"

	"r2t/internal/dp"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestParallelBitIdenticalToSerial(t *testing.T) {
	// Regression pin for the worker pool (run under -race by scripts/check.sh):
	// with a fixed noise source the Workers:4 estimate must be byte-identical
	// to the serial one both with and without early stop.
	inst, s := starInstance(t, []int{3, 5, 9, 17, 30})
	tr := edgeTruncator(t, inst, s)
	paths := []struct {
		name  string
		early bool
	}{
		{"plain", false},
		{"early-stop", true},
	}
	for _, path := range paths {
		for seed := int64(0); seed < 12; seed++ {
			serial, err := Run(tr, Config{
				Epsilon: 1, GSQ: 256, Noise: dp.NewSource(seed), EarlyStop: path.early, Workers: 1,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", path.name, seed, err)
			}
			parallel, err := Run(tr, Config{
				Epsilon: 1, GSQ: 256, Noise: dp.NewSource(seed), EarlyStop: path.early, Workers: 4,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", path.name, seed, err)
			}
			if !sameBits(serial.Estimate, parallel.Estimate) {
				t.Fatalf("%s seed %d: parallel estimate %v (bits %x) != serial %v (bits %x)",
					path.name, seed,
					parallel.Estimate, math.Float64bits(parallel.Estimate),
					serial.Estimate, math.Float64bits(serial.Estimate))
			}
		}
	}
}
