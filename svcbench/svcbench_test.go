package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// keyDataset carries the key ranges the streams draw from, without files.
var keyDataset = &dataset{name: "ds", primary: []string{"P"}, nodes: 400, customers: 60, suppliers: 8, parts: 90, orders: 500}

func firstOps(w *workload, seed int64, client, n int) []op {
	s := newStream(w, keyDataset, seed, client, clients)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			a, b := firstOps(w, 7, c, 500), firstOps(w, 7, c, 500)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: the same seed gave different ops", w.name, c)
			}
			if other := firstOps(w, 8, c, 500); reflect.DeepEqual(a, other) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same ops", w.name, c)
			}
		}
	}
}

func TestStreamMix(t *testing.T) {
	for _, w := range workloads {
		var n [numOpKinds]int
		ops := firstOps(w, 1, 0, 1000)
		for _, o := range ops {
			n[o.kind]++
		}
		if got := float64(n[opReplay]) / 1000; got < w.replayFrac-0.01 || got > w.replayFrac+0.01 {
			t.Errorf("%s: replay share %v, want %v", w.name, got, w.replayFrac)
		}
		if got := float64(n[opAppend]) / 1000; got < w.appendFrac-0.01 || got > w.appendFrac+0.01 {
			t.Errorf("%s: append share %v, want %v", w.name, got, w.appendFrac)
		}
	}
}

func TestFreshFingerprintsDisjoint(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]int{}
		for c := 0; c < clients; c++ {
			for _, o := range firstOps(w, 3, c, 3000) {
				if o.kind != opFresh {
					continue
				}
				q := o.query
				key := fmt.Sprint(q.SQL, "|", q.Epsilon, "|", q.GSQ, "|", q.Primary)
				if prev, dup := seen[key]; dup {
					t.Fatalf("%s: clients %d and %d both issue fresh %q", w.name, prev, c, key)
				}
				seen[key] = c
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		q       float64
		want    float64
		flagged bool
	}{
		{19, 0.5, 0, true},
		{20, 0.5, 10, false},
		{99, 0.9, 0, true},
		{100, 0.9, 90, false},
		{999, 0.99, 0, true},
		{1000, 0.99, 990, false},
		{1000, 0.5, 500, false},
	} {
		m := percentile("x", seq(tc.n), tc.q, "ms")
		if m.samples != tc.n {
			t.Errorf("n=%d q=%v: samples %d", tc.n, tc.q, m.samples)
		}
		if (m.flag != "") != tc.flagged {
			t.Errorf("n=%d q=%v: flag %q, want flagged=%v", tc.n, tc.q, m.flag, tc.flagged)
		}
		if !tc.flagged && m.value != tc.want {
			t.Errorf("n=%d q=%v: value %v, want %v", tc.n, tc.q, m.value, tc.want)
		}
		if tc.flagged && !strings.Contains(m.String(), "insufficient samples") {
			t.Errorf("n=%d q=%v: flagged metric prints %q", tc.n, tc.q, m.String())
		}
	}
}

// TestSmoke runs every workload end to end at a tiny scale, timed and
// traced, with every output check enabled.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real topologies")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				line, err := run(options{workload: w.name, seed: 5, seconds: 3, trace: trace, scale: 0.05, workDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				var out output
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("final line %q: %v", line, err)
				}
				want := spec.EndToEnd
				if trace == 1 {
					want = spec.PerLayer
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 || len(out.Metrics) != len(want) {
					t.Fatalf("result %+v, want correct, attempted ≥ 1, no failures and %d metrics", out, len(want))
				}
				for _, m := range want {
					if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s as BENCHMARK.json lists", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}
