package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"r2t"
	"r2t/internal/mech"
	"r2t/internal/server"
	"r2t/internal/shard"
	"r2t/internal/truncation"
)

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the index of the enclosing span, -1 for a request's root.
// The root is the client's round trip. The server's span and its engine
// stages come from the request log, which gives durations only: the server
// span is centred in the round trip and the stages follow each other inside
// it. The direct calls into single layers carry the real times at which the
// benchmark made them, after the response.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the traced phase began
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// add records a span and returns its index.
func (tr *tracer) add(name string, start time.Time, d time.Duration, parent, req int) int {
	s := ms(start.Sub(tr.t0))
	tr.spans = append(tr.spans, span{Name: name, Start: s, End: s + ms(d), Parent: parent, Req: req})
	return len(tr.spans) - 1
}

// logCapture is the entry node's operator request log, kept in memory.
type logCapture struct {
	mu    sync.Mutex
	lines [][]byte
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, append([]byte(nil), p...))
	return len(p), nil
}

// logEntry is the part of a request-log line the attribution reads.
type logEntry struct {
	ElapsedMS float64            `json:"elapsed_ms"`
	Stages    map[string]float64 `json:"stage_ms"`
}

// take returns the lines logged since the last call.
func (l *logCapture) take() ([]logEntry, error) {
	l.mu.Lock()
	lines := l.lines
	l.lines = nil
	l.mu.Unlock()
	out := make([]logEntry, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(bytes.TrimSpace(line), &out[i]); err != nil {
			return nil, fmt.Errorf("request log line %q: %w", line, err)
		}
	}
	return out, nil
}

// stageLayers maps the engine's profile stages to per-layer metric names.
var stageLayers = []struct{ stage, name string }{
	{"parse", "sql.parse_ms"},
	{"plan", "plan.plan_ms"},
	{"exec", "exec.exec_ms"},
	{"truncation-build", "truncation.build_ms"},
	{"lp-solve", "lp.solve_ms"},
	{"noise", "dp.noise_ms"},
}

// traced accumulates the per-request samples of the traced phase.
type traced struct {
	rtt       [numOpKinds][]float64
	transport [numOpKinds][]float64
	attrib    [numOpKinds]float64 // Σ time attributed to measured layers
	total     [numOpKinds]float64 // Σ round trips
	layers    map[string]float64  // Σ time attributed to each layer, all op types
	explain   []float64
	stages    map[string][]float64
	scatter   []float64
	partials  []float64
	merge     []float64
	inserts   []float64
	fresh     int
	pivots    int64
	prunes    int64
	races     int
	fastpaths int
	entries   []server.LedgerEntry
}

// tracedRun measures per-layer attribution at concurrency 1. It first runs
// the merged stream untraced (request log off) for half the time, then
// replays exactly the same ops on a fresh topology with the request log on,
// timing each layer from outside after every response.
func tracedRun(w *workload, ds *dataset, dir string, o options) ([]metric, int, error) {
	warm := warmup(o.seconds)
	half := time.Duration(o.seconds) * time.Second / 2

	// Untraced phase: the baseline for the tracing overhead.
	tA, err := startTopology(w, ds, filepath.Join(dir, "untraced"), topoOptions{})
	if err != nil {
		return nil, 0, err
	}
	ckA := newChecker(clients)
	clA := newClient(tA.entry.url)
	mA := newMerged(w, ds, o.seed, clients)
	var rttA []float64
	nWarm, n := 0, 0
	begin := time.Now()
	for time.Since(begin) < warm+half {
		warming := time.Since(begin) < warm
		op, c := mA.next()
		r, err := ckA.do(clA, c, op)
		if err != nil {
			clA.close()
			tA.stop()
			return nil, 0, err
		}
		n++
		if warming {
			nWarm++
		} else {
			rttA = append(rttA, ms(r.rtt))
		}
	}
	clA.close()
	_, err = ckA.checkEnd(tA, ds)
	if serr := tA.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, 0, err
	}

	// Traced phase: the same n ops, request log on.
	sh, err := openShadow(ds, filepath.Join(dir, "shadow"))
	if err != nil {
		return nil, 0, err
	}
	defer sh.close()
	capture := &logCapture{}
	tB, err := startTopology(w, ds, filepath.Join(dir, "traced"), topoOptions{reqLog: capture})
	if err != nil {
		return nil, 0, err
	}
	stopped := false
	defer func() {
		if !stopped {
			tB.stop()
		}
	}()
	var pool *shard.Pool
	var shard0 *r2t.DB
	if w.topo == topoSharded {
		// The direct scatter goes to twins of the live shards over the same
		// rows, which receive the same sub-queries in the same order, so
		// their caches match the live shards' while the live shards' counters
		// see only the router's traffic.
		twins, err := startShards(ds, filepath.Join(dir, "twins"), topoOptions{})
		defer func() {
			for _, n := range twins {
				n.stop()
			}
		}()
		if err != nil {
			return nil, 0, err
		}
		pool = shard.NewPool(shardMap(twins), shard.PoolConfig{})
		defer pool.Close()
		if shard0, err = openReference(&dataset{dir: ds.shardDirs[0], schemaPath: ds.schemaPath}); err != nil {
			return nil, 0, err
		}
	}
	if _, err := capture.take(); err != nil { // the readiness probe's line
		return nil, 0, err
	}
	before, err := scrape(tB)
	if err != nil {
		return nil, 0, err
	}
	ck := newChecker(clients)
	cl := newClient(tB.entry.url)
	defer cl.close()
	m := newMerged(w, ds, o.seed, clients)
	tr := &tracer{t0: time.Now()}
	acc := &traced{stages: map[string][]float64{}, layers: map[string]float64{}}
	var rttB []float64
	for i := 0; i < n; i++ {
		op, c := m.next()
		r, err := ck.do(cl, c, op)
		if err != nil {
			return nil, 0, err
		}
		if !r.ok {
			return nil, 0, fmt.Errorf("traced op %d (%s) failed", i, op.kind)
		}
		logged, err := capture.take()
		if err != nil {
			return nil, 0, err
		}
		if len(logged) != 1 {
			return nil, 0, fmt.Errorf("traced op %d logged %d request-log lines, want 1", i, len(logged))
		}
		if err := acc.attribute(tr, i, i < nWarm, op, r, logged[0], sh, w, ds, pool, shard0); err != nil {
			return nil, 0, err
		}
		if i >= nWarm {
			rttB = append(rttB, ms(r.rtt))
		}
	}
	after, err := scrape(tB)
	if err != nil {
		return nil, 0, err
	}
	if _, err := ck.checkEnd(tB, ds); err != nil {
		return nil, 0, err
	}
	stopped = true
	if err := tB.stop(); err != nil {
		return nil, 0, err
	}

	// Layers the stream reaches through the server at a constant cost are
	// timed in a loop on benchmark-owned instances, once per fresh query.
	ledger, err := timeLedgerAppends(dir, acc.entries)
	if err != nil {
		return nil, 0, err
	}
	commits, err := timeReplCommits(dir, acc.entries)
	if err != nil {
		return nil, 0, err
	}
	if w.appendFrac == 0 {
		ins, err := openShadow(ds, filepath.Join(dir, "inserts"))
		if err != nil {
			return nil, 0, err
		}
		for _, b := range syntheticBatches(ds, o.seed, max(acc.fresh, 100)) {
			d, err := ins.timeInsert(b)
			if err != nil {
				ins.close()
				return nil, 0, err
			}
			acc.inserts = append(acc.inserts, d)
		}
		if err := ins.close(); err != nil {
			return nil, 0, err
		}
	}
	nFresh := float64(len(acc.rtt[opFresh]))
	acc.credit(opFresh, "server.ledger_append", median(ledger)*nFresh)
	if w.topo == topoReplica {
		acc.credit(opFresh, "repl.commit", median(commits)*nFresh)
	}

	if err := writeSpans(o.spans, tr.spans); err != nil {
		return nil, 0, err
	}
	ms := acc.metrics(ledger, commits, before, after, rttA, rttB)
	if o.record != "" {
		if err := record(o.record, w, o.seed, ms, acc); err != nil {
			return nil, 0, err
		}
	}
	return ms, n - nWarm, nil
}

// credit attributes d ms of an op of kind k to a layer.
func (acc *traced) credit(k opKind, layer string, d float64) {
	acc.attrib[k] += d
	acc.layers[layer] += d
}

// attribute times the layers behind op i from outside, after its response,
// and records its spans. Warm-up ops still run the direct calls, so the
// shadow's data and caches follow the server's, but record nothing.
func (acc *traced) attribute(tr *tracer, i int, warming bool, op op, r result, lg logEntry, sh *shadow, w *workload, ds *dataset, pool *shard.Pool, shard0 *r2t.DB) error {
	k := r.kind
	transport := r.rtt - time.Duration(lg.ElapsedMS*float64(time.Millisecond))
	root, handle := -1, -1
	handleStart := r.start.Add(transport / 2)
	if !warming {
		root = tr.add("client.rtt."+k.String(), r.start, r.rtt, -1, i)
		handle = tr.add("server.handle", handleStart, r.rtt-transport, root, i)
		acc.rtt[k] = append(acc.rtt[k], ms(r.rtt))
		acc.transport[k] = append(acc.transport[k], ms(transport))
		acc.total[k] += ms(r.rtt)
		acc.credit(k, "server.transport", ms(transport))
	}
	if k == opAppend {
		start := time.Now()
		d, err := sh.timeInsert(op.append)
		if err != nil {
			return fmt.Errorf("shadow append: %w", err)
		}
		if !warming {
			tr.add("segstore.insert", start, time.Since(start), root, i)
			acc.inserts = append(acc.inserts, d)
			acc.credit(k, "segstore.insert", d)
		}
		return nil
	}
	q := op.query
	primary := q.Primary
	if len(primary) == 0 {
		primary = ds.primary
	}
	start := time.Now()
	if _, err := sh.db.Explain(q.SQL, primary); err != nil {
		return fmt.Errorf("shadow explain: %w", err)
	}
	explain := time.Since(start)
	if !warming {
		tr.add("server.explain", start, explain, root, i)
		acc.explain = append(acc.explain, ms(explain))
		acc.credit(k, "server.explain", ms(explain))
	}
	if k != opFresh {
		return nil
	}
	// The profiled re-run keeps the shadow's join-core cache in step with the
	// server's and yields the engine's exact work counters.
	start = time.Now()
	a, err := sh.db.QueryContext(context.Background(), q.SQL, r2t.Options{
		Epsilon: q.Epsilon, GSQ: q.GSQ, Primary: primary, EarlyStop: true, Profile: true,
		Noise: r2t.NewNoiseSource(int64(i) + 1),
	})
	if err != nil {
		return fmt.Errorf("profiled re-run of %q: %w", q.SQL, err)
	}
	rerun := time.Since(start)
	if warming {
		return nil
	}
	tr.add("engine.rerun", start, rerun, root, i)
	acc.fresh++
	acc.entries = append(acc.entries, ledgerEntry(ds, q))
	acc.pivots += a.Profile.Counters["simplex_pivots"]
	acc.prunes += a.Profile.Counters["earlystop_prunes"]
	acc.races += len(a.Races)
	if a.Profile.Counters["partition_fastpaths"] > 0 {
		acc.fastpaths++
	}
	stages := lg.Stages
	if w.topo == topoSharded {
		// The router logs no stages; the shards and router split the same
		// engine work the union re-run profiles.
		stages = map[string]float64{}
		for _, st := range a.Profile.Stages {
			stages[st.Stage] = ms(st.Duration)
		}
	} else {
		// The log gives stage durations only; lay them out in pipeline
		// order after the pre-analysis inside the server's span.
		at := handleStart.Add(explain)
		for _, st := range stageLayers {
			d := time.Duration(lg.Stages[st.stage] * float64(time.Millisecond))
			tr.add("engine."+st.stage, at, d, handle, i)
			at = at.Add(d)
			acc.credit(k, strings.TrimSuffix(st.name, "_ms"), lg.Stages[st.stage])
		}
	}
	for _, st := range stageLayers {
		acc.stages[st.name] = append(acc.stages[st.name], stages[st.stage])
	}
	if pool == nil {
		return nil
	}
	return acc.timeShards(tr, i, root, q, pool, shard0)
}

// timeShards times the sharded path's three layers on one fresh query: the
// scatter to the live shards, one shard's partials, and the router's merge
// plus release.
func (acc *traced) timeShards(tr *tracer, i, root int, q queryReq, pool *shard.Pool, shard0 *r2t.DB) error {
	ctx := context.Background()
	payload := shard.EncodeSubQuery(shard.SubQuery{Dataset: q.Dataset, SQL: q.SQL, Primary: q.Primary, Epsilon: q.Epsilon, GSQ: q.GSQ})
	start := time.Now()
	raws, err := pool.Scatter(ctx, payload)
	if err != nil {
		return fmt.Errorf("scatter: %w", err)
	}
	d := time.Since(start)
	tr.add("shard.scatter", start, d, root, i)
	acc.scatter = append(acc.scatter, ms(d))

	start = time.Now()
	parts := make([]*truncation.Partial, len(raws))
	for j, raw := range raws {
		reply, err := shard.DecodeReply(raw)
		if err != nil {
			return err
		}
		if reply.Err != "" || len(reply.Units) != 1 {
			return fmt.Errorf("shard %d sub-query: %q, %d units", j, reply.Err, len(reply.Units))
		}
		parts[j] = reply.Units[0]
	}
	merged, err := truncation.MergePartials(parts)
	if err != nil {
		return err
	}
	be, _ := mech.ByName(mech.MechR2T)
	if _, err := be.Run(merged, mech.Params{Epsilon: q.Epsilon, GSQ: q.GSQ, Noise: r2t.NewNoiseSource(int64(i) + 1), EarlyStop: true}); err != nil {
		return err
	}
	d = time.Since(start)
	tr.add("shard.merge", start, d, root, i)
	acc.merge = append(acc.merge, ms(d))
	acc.credit(opFresh, "shard.scatter", acc.scatter[len(acc.scatter)-1])
	acc.credit(opFresh, "shard.merge", ms(d))

	start = time.Now()
	if _, err := shard0.Partials(ctx, q.SQL, r2t.Options{Epsilon: q.Epsilon, GSQ: q.GSQ, Primary: q.Primary, Mechanism: mech.MechR2T, EarlyStop: true}); err != nil {
		return fmt.Errorf("shard partials: %w", err)
	}
	d = time.Since(start)
	tr.add("shard.partials", start, d, root, i)
	acc.partials = append(acc.partials, ms(d))
	return nil
}

// scrape reads /metrics from the entry node and every shard.
func scrape(t *topology) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range append([]*node{t.entry}, t.shards...) {
		c := newClient(n.url)
		m, err := c.metrics()
		c.close()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// delta sums a metric's change across the scraped nodes.
func delta(before, after []map[string]float64, name, match string) float64 {
	d := 0.0
	for i := range before {
		d += sumSeries(after[i], name, match) - sumSeries(before[i], name, match)
	}
	return d
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the traced samples into the per-layer table. A layer the
// workload never reaches reports 0 with 0 samples.
func (acc *traced) metrics(ledger, commits []float64, before, after []map[string]float64, rttA, rttB []float64) []metric {
	sample := func(name string, xs []float64) metric {
		return metric{name: name, value: median(xs), unit: "ms", samples: len(xs)}
	}
	ratio := func(name string, num, den float64, unit string) metric {
		return metric{name: name, value: frac(num, den), unit: unit, samples: int(den)}
	}
	hits := delta(before, after, "r2td_queries_total", `status="cache_hit"`)
	oks := delta(before, after, "r2td_queries_total", `status="ok"`)
	coreHits := delta(before, after, "r2td_join_core_cache_hits_total", "")
	coreMiss := delta(before, after, "r2td_join_core_cache_misses_total", "")
	ext := delta(before, after, "r2td_index_cache_extensions_total", "")
	rebuild := delta(before, after, "r2td_index_cache_rebuilds_total", "")
	out := []metric{
		sample("server.transport_fresh_ms", acc.transport[opFresh]),
		sample("server.transport_replay_ms", acc.transport[opReplay]),
		sample("server.transport_append_ms", acc.transport[opAppend]),
		sample("server.explain_ms", acc.explain),
		sample("server.ledger_append_ms", ledger),
		ratio("server.cache_hit_frac", hits, hits+oks, "frac"),
		{name: "server.rejects", value: delta(before, after, "r2td_queries_total", `status="rejected"`), unit: "count", samples: int(hits + oks)},
		sample("repl.commit_ms", commits),
		sample("segstore.insert_ms", acc.inserts),
		ratio("exec.join_core_hit_frac", coreHits, coreHits+coreMiss, "frac"),
		ratio("storage.index_extend_frac", ext, ext+rebuild, "frac"),
	}
	for _, st := range stageLayers {
		out = append(out, sample(st.name, acc.stages[st.name]))
	}
	out = append(out,
		ratio("lp.pivots_per_fresh", float64(acc.pivots), float64(acc.fresh), "count"),
		ratio("core.earlystop_prune_frac", float64(acc.prunes), float64(acc.races), "frac"),
		ratio("truncation.fastpath_frac", float64(acc.fastpaths), float64(acc.fresh), "frac"),
		sample("shard.scatter_ms", acc.scatter),
		sample("shard.partials_ms", acc.partials),
		sample("shard.merge_ms", acc.merge),
		metric{name: "shard.hedges", value: delta(before, after, "r2td_shard_hedges_total", ""), unit: "count", samples: len(acc.scatter)},
	)
	for k := opFresh; k < numOpKinds; k++ {
		other := 0.0
		if acc.total[k] > 0 {
			other = 1 - acc.attrib[k]/acc.total[k]
		}
		out = append(out, metric{name: "other_frac." + k.String(), value: other, unit: "frac", samples: len(acc.rtt[k])})
	}
	out = append(out, metric{name: "trace_overhead_frac", value: frac(sum(rttB), sum(rttA)) - 1, unit: "frac", samples: len(rttB)})
	return out
}

func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// record merges this workload's per-layer table into the JSON baseline file
// at path, keyed by workload.
// Beside the table it records each layer's share of all traced round-trip
// time, largest first, the unattributed rest as "other".
func record(path string, w *workload, seed int64, ms []metric, acc *traced) error {
	all := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	table := map[string]any{}
	for _, m := range ms {
		table[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
	}
	total := 0.0
	for _, t := range acc.total {
		total += t
	}
	type share struct {
		Layer string  `json:"layer"`
		Share float64 `json:"share"`
	}
	var shares []share
	rest := 1.0
	for l, t := range acc.layers {
		shares = append(shares, share{l, frac(t, total)})
		rest -= frac(t, total)
	}
	shares = append(shares, share{"other", rest})
	sort.Slice(shares, func(i, j int) bool { return shares[i].Share > shares[j].Share })
	all[w.name] = map[string]any{"seed": seed, "per_layer": table, "time_share": shares}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
