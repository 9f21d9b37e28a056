// Command svcbench is the r2td service benchmark. It generates a workload's
// dataset from the in-repo generators, starts a real r2td topology in
// process on loopback TCP, drives it with a seeded closed-loop request
// stream, checks every output, and prints each metric with its unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate run at concurrency 1 reports the per-layer attribution instead.
// Any failed output check exits non-zero without printing a result.
//
//	go run . -workload graph-lp -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"
)

// clients is the closed loop's concurrency: one caller per core of the
// two-core machine the baseline was recorded on, fixed so that runs on other
// machines drive the same load.
const clients = 2

// setupRuns is how many times a run sets its topology up; setup_s is the
// median.
const setupRuns = 9

// endToEnd and perLayer are the metrics BENCHMARK.json lists. The final JSON
// line carries exactly one of the two sets; every other metric is printed
// for reading but not recorded. They are the metrics every workload can
// report steadily: append latency exists on tpch-service only, p99 needs more
// samples than graph-lp collects in one run, and the replay p90 moved by up
// to 60 % between runs of one seed, so those are printed as info.
var (
	endToEnd = []string{
		"setup_s", "throughput_ops_per_s",
		"fresh_p50_ms", "fresh_p90_ms", "replay_p50_ms", "heap_live_mb",
	}
	perLayer = []string{
		"server.transport_fresh_ms", "server.transport_replay_ms", "server.transport_append_ms",
		"server.explain_ms", "server.ledger_append_ms", "server.cache_hit_frac", "server.rejects",
		"repl.commit_ms", "segstore.insert_ms",
		"exec.join_core_hit_frac", "storage.index_extend_frac",
		"sql.parse_ms", "plan.plan_ms", "exec.exec_ms", "truncation.build_ms", "lp.solve_ms", "dp.noise_ms",
		"lp.pivots_per_fresh", "core.earlystop_prune_frac", "truncation.fastpath_frac",
		"shard.scatter_ms", "shard.partials_ms", "shard.merge_ms", "shard.hedges",
		"other_frac.fresh", "other_frac.replay", "other_frac.append", "trace_overhead_frac",
	}
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    float64
	workDir  string
	record   string
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "graph-lp", "graph-lp, tpch-service or tpch-sharded")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: datasets and request streams depend only on it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of the closed-loop phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run; 1: traced per-layer run at concurrency 1")
	flag.Float64Var(&o.scale, "scale", 1, "dataset size multiplier (tests use a tiny scale)")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "svcbench"), "directory for run files (removed afterwards)")
	flag.StringVar(&o.record, "record", "", "with -trace 1, also write the per-layer table as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans as JSON lines to this file (default <workdir>/spans-<workload>.jsonl)")
	flag.Parse()
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// output is the final JSON line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark invocation and returns the final JSON line.
func run(o options) (string, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return "", err
	}
	if o.trace != 0 && o.trace != 1 {
		return "", fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return "", fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return "", err
	}
	if o.spans == "" {
		o.spans = filepath.Join(o.workDir, "spans-"+o.workload+".jsonl")
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	ds, err := w.generate(dir, o.scale, o.seed)
	if err != nil {
		return "", fmt.Errorf("generating %s dataset: %w", w.name, err)
	}
	fmt.Printf("svcbench workload=%s seed=%d seconds=%d trace=%d clients=%d rows=%v\n",
		w.name, o.seed, o.seconds, o.trace, clients, ds.rows)
	verifySetup, err := verifyPass(w, ds, filepath.Join(dir, "verify"), o.seed, clients, w.verifyOps)
	if err != nil {
		return "", err
	}
	fmt.Printf("verification pass: %d ops bitwise-equal to the reference DB\n", w.verifyOps)

	var ms []metric
	var attempted, failed int
	if o.trace == 1 {
		ms, attempted, err = tracedRun(w, ds, dir, o)
	} else {
		ms, attempted, failed, err = timedRun(w, ds, dir, o, verifySetup)
	}
	if err != nil {
		return "", err
	}
	listed := endToEnd
	if o.trace == 1 {
		listed = perLayer
	}
	res := output{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		if !slices.Contains(listed, m.name) {
			fmt.Println("info  ", m)
			continue
		}
		fmt.Println("metric", m)
		if m.flag != "" {
			return "", fmt.Errorf("metric %s: %s", m.name, m.flag)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	for _, name := range listed {
		if _, ok := res.Metrics[name]; !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// timedRun is the end-to-end run: set-up timing, then the closed loop with
// clients concurrent callers against production server defaults, then the
// end-of-run checks.
func timedRun(w *workload, ds *dataset, dir string, o options, verifySetup float64) ([]metric, int, int, error) {
	setups := []float64{verifySetup}
	for i := 2; i < setupRuns; i++ {
		t, err := startTopology(w, ds, filepath.Join(dir, fmt.Sprintf("setup%d", i)), topoOptions{})
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, t.setup.Seconds())
		if err := t.stop(); err != nil {
			return nil, 0, 0, err
		}
	}
	t, err := startTopology(w, ds, filepath.Join(dir, "timed"), topoOptions{})
	if err != nil {
		return nil, 0, 0, err
	}
	setups = append(setups, t.setup.Seconds())
	stopped := false
	defer func() {
		if !stopped {
			t.stop()
		}
	}()

	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(w, ds, o.seed, c, clients)
	}
	ck := newChecker(clients)
	heap := startHeapSampler(250 * time.Millisecond)
	ps, err := closedLoop(t, streams, ck, warmup(o.seconds), time.Duration(o.seconds)*time.Second)
	heapMB := heap.finish()
	if err != nil {
		return nil, 0, 0, err
	}
	spent, err := ck.checkEnd(t, ds)
	if err != nil {
		return nil, 0, 0, err
	}
	stopped = true
	if err := t.stop(); err != nil {
		return nil, 0, 0, err
	}
	if w.topo == topoReplica {
		if err := ck.checkRestart(t, ds, spent); err != nil {
			return nil, 0, 0, err
		}
		fmt.Println("restart check: restarted primary serves the acknowledged rows and the same spend")
	}

	okOps := ps.attempted - ps.failed
	ms := []metric{
		{name: "setup_s", value: median(setups), unit: "s", samples: len(setups)},
		{name: "throughput_ops_per_s", value: float64(okOps) / ps.window.Seconds(), unit: "1/s", samples: okOps},
	}
	for k := opFresh; k < numOpKinds; k++ {
		lat := ps.latencies(k)
		if len(lat) == 0 {
			continue // an op type the workload never issues
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			ms = append(ms, percentile(fmt.Sprintf("%s_p%g_ms", k, q*100), lat, q, "ms"))
		}
	}
	ms = append(ms,
		metric{name: "heap_live_mb", value: median(heapMB), unit: "MB", samples: len(heapMB)},
		metric{name: "fail_frac", value: float64(ps.failed) / float64(ps.attempted), unit: "frac", samples: ps.attempted},
	)
	return ms, ps.attempted, ps.failed, nil
}

// heapSampler reads the live heap as of the last garbage collection at a
// fixed interval. It forces no collection, so it does not perturb the
// latencies it runs beside; the process holds every in-process server, so
// the figure covers tables, indexes, join cores and the answer cache.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var mb []float64
		for {
			select {
			case <-h.stop:
				h.done <- mb
				return
			case <-tick.C:
				metrics.Read(s)
				if s[0].Value.Kind() == metrics.KindUint64 {
					mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in MB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	return <-h.done
}

// warmup is the unrecorded lead-in before measurement: long enough for
// indexes and join cores to be built once, short against the run.
func warmup(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 10
}
