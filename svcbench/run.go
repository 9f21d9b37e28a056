package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// result is one finished operation as the client saw it.
type result struct {
	kind  opKind
	start time.Time
	rtt   time.Duration
	ok    bool
	q     queryResp
	a     appendResp
}

// checker applies the output checks every phase shares. It is safe for
// concurrent use by the clients of one phase.
type checker struct {
	mu      sync.Mutex
	charged float64             // Σ ε charged by successful ops
	fresh   [][]float64         // per client: estimate of each fresh query, NaN if it failed
	acked   map[string]int      // rows acknowledged per relation
	total   map[string]int      // highest total_rows seen per relation
	last    map[string][]string // last acknowledged row per relation
	// failedEps is the ε requested by queries that failed. A failure after
	// admission leaves its charge standing, so the ledger may exceed charged
	// by at most this much.
	failedEps float64
}

func newChecker(clients int) *checker {
	return &checker{
		fresh: make([][]float64, clients),
		acked: make(map[string]int),
		total: make(map[string]int),
		last:  make(map[string][]string),
	}
}

// do runs one op for client c and checks its output. A failed request (non-2xx
// or transport error) is returned with ok=false and no error; an error means
// the program's output is wrong.
func (ck *checker) do(cl *client, c int, o op) (result, error) {
	r := result{kind: o.kind, start: time.Now()}
	var code int
	var err error
	if o.kind == opAppend {
		code, err = cl.post("/v1/append", o.append, &r.a)
	} else {
		code, err = cl.post("/v1/query", o.query, &r.q)
	}
	r.rtt = time.Since(r.start)
	r.ok = err == nil && code == http.StatusOK
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if o.kind == opReplay && math.IsNaN(ck.fresh[c][o.of]) {
		// The query it repeats failed, so this request leads a fresh flight.
		r.kind = opFresh
	}
	if !r.ok {
		if o.kind != opAppend {
			ck.failedEps += o.query.Epsilon
		}
		if o.kind == opFresh {
			ck.fresh[c] = append(ck.fresh[c], math.NaN())
		}
		return r, nil
	}
	switch r.kind {
	case opFresh:
		if r.q.Cached || r.q.EpsilonCharged != o.query.Epsilon {
			return r, fmt.Errorf("fresh query %q (ε=%v) answered cached=%v charged=%v", o.query.SQL, o.query.Epsilon, r.q.Cached, r.q.EpsilonCharged)
		}
		if o.kind == opFresh {
			ck.fresh[c] = append(ck.fresh[c], r.q.Estimate)
		} else {
			ck.fresh[c][o.of] = r.q.Estimate
		}
	case opReplay:
		want := ck.fresh[c][o.of]
		if !r.q.Cached || r.q.EpsilonCharged != 0 || math.Float64bits(r.q.Estimate) != math.Float64bits(want) {
			return r, fmt.Errorf("replay of %q: cached=%v charged=%v estimate=%v, want cached=true charged=0 estimate=%v",
				o.query.SQL, r.q.Cached, r.q.EpsilonCharged, r.q.Estimate, want)
		}
	case opAppend:
		rel := o.append.Relation
		if r.a.Appended != len(o.append.Rows) {
			return r, fmt.Errorf("append of %d rows to %s acknowledged %d", len(o.append.Rows), rel, r.a.Appended)
		}
		ck.acked[rel] += r.a.Appended
		ck.total[rel] = max(ck.total[rel], r.a.TotalRows)
		ck.last[rel] = o.append.Rows[len(o.append.Rows)-1]
	}
	ck.charged += r.q.EpsilonCharged
	return r, nil
}

// checkEnd runs the end-of-run checks against a still-running topology: the
// ε ledger matches what was charged, every acknowledged row is counted, and
// the replica, if any, has caught up with the primary's spend. It returns
// the spend the entry node reports.
func (ck *checker) checkEnd(t *topology, ds *dataset) (float64, error) {
	cl := newClient(t.entry.url)
	defer cl.close()
	spent, err := cl.spent(ds.name)
	if err != nil {
		return 0, err
	}
	// The client sums in completion order, the ledger in charge order, so
	// the two may differ in the last bits.
	want := ck.charged + t.probeEps
	if !closeTo(spent, want) && (spent < want || spent > want+ck.failedEps) {
		return 0, fmt.Errorf("epsilon_spent %v, want Σ charged ε = %v (+ at most %v requested by failed queries)", spent, want, ck.failedEps)
	}
	for rel, n := range ck.acked {
		if ck.total[rel] != ds.rows[rel]+n {
			return 0, fmt.Errorf("%s total_rows %d, want %d initial + %d acknowledged", rel, ck.total[rel], ds.rows[rel], n)
		}
	}
	if t.replica == nil {
		return spent, nil
	}
	rc := newClient(t.replica.url)
	defer rc.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := replicaCaughtUp(cl, rc, ds, spent)
		if err == nil {
			return spent, nil
		}
		if time.Now().After(deadline) {
			return 0, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func replicaCaughtUp(primary, replica *client, ds *dataset, spent float64) error {
	if code, err := replica.get("/readyz", nil); err != nil || code != http.StatusOK {
		return fmt.Errorf("replica /readyz: code %d: %v", code, err)
	}
	pm, err := primary.metrics()
	if err != nil {
		return err
	}
	if lag := sumSeries(pm, "r2td_repl_lag_records", ""); lag != 0 {
		return fmt.Errorf("replica lags the primary by %v ledger records", lag)
	}
	rm, err := replica.metrics()
	if err != nil {
		return err
	}
	if rm["r2td_repl_caught_up"] != 1 {
		return errors.New("replica reports r2td_repl_caught_up != 1")
	}
	rs, err := replica.spent(ds.name)
	if err != nil {
		return err
	}
	if rs != spent {
		return fmt.Errorf("replica epsilon_spent %v, primary %v", rs, spent)
	}
	return nil
}

// checkRestart restarts the stopped topology's primary alone over the same
// ledger and durable directory. It must report the same spend and serve the
// acknowledged row counts: one more row appended to each written relation
// must land at initial + acknowledged + 1.
func (ck *checker) checkRestart(t *topology, ds *dataset, spent float64) error {
	cfg := t.entry.cfg
	cfg.Role, cfg.ReplListen, cfg.SyncReplicas, cfg.RequestLog = "", "", 0, nil
	n, err := startNode(cfg)
	if err != nil {
		return fmt.Errorf("restarting primary: %w", err)
	}
	defer n.stop()
	if err := waitReady(n); err != nil {
		return err
	}
	cl := newClient(n.url)
	defer cl.close()
	got, err := cl.spent(ds.name)
	if err != nil {
		return err
	}
	if got != spent {
		return fmt.Errorf("restarted primary epsilon_spent %v, before restart %v", got, spent)
	}
	for rel, acked := range ck.acked {
		row := append([]string(nil), ck.last[rel]...)
		if rel == "Orders" {
			row[0] = itoa(ds.orders + 1<<30) // a key no stream ever uses
		}
		var resp appendResp
		code, err := cl.post("/v1/append", appendReq{Dataset: ds.name, Relation: rel, Rows: [][]string{row}}, &resp)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("append after restart to %s: code %d: %v", rel, code, err)
		}
		if want := ds.rows[rel] + acked + 1; resp.TotalRows != want {
			return fmt.Errorf("after restart %s total_rows %d, want %d (acknowledged rows lost or duplicated)", rel, resp.TotalRows-1, want-1)
		}
	}
	return nil
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// phaseStats is what a closed-loop phase measured.
type phaseStats struct {
	results   []result // measured ops, in completion order per client
	attempted int
	failed    int
	window    time.Duration // end of warm-up to the last measured finish
}

// closedLoop drives clients concurrent callers, each issuing its own stream
// back to back, for warmup plus measure. Ops started during warm-up are
// checked but not recorded.
func closedLoop(t *topology, streams []*stream, ck *checker, warmup, measure time.Duration) (*phaseStats, error) {
	begin := time.Now()
	warmEnd := begin.Add(warmup)
	end := warmEnd.Add(measure)
	per := make([][]result, len(streams))
	errs := make([]error, len(streams))
	var stop sync.Once
	halt := make(chan struct{})
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t.entry.url)
			defer cl.close()
			for {
				select {
				case <-halt:
					return
				default:
				}
				if !time.Now().Before(end) {
					return
				}
				r, err := ck.do(cl, c, streams[c].next())
				if err != nil {
					errs[c] = err
					stop.Do(func() { close(halt) })
					return
				}
				if !r.start.Before(warmEnd) {
					per[c] = append(per[c], r)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	ps := &phaseStats{}
	var last time.Time
	for _, rs := range per {
		for _, r := range rs {
			ps.results = append(ps.results, r)
			ps.attempted++
			if !r.ok {
				ps.failed++
			}
			if f := r.start.Add(r.rtt); f.After(last) {
				last = f
			}
		}
	}
	ps.window = last.Sub(warmEnd)
	return ps, nil
}

// latencies returns the measured round trips of successful ops of kind k, in ms.
func (ps *phaseStats) latencies(k opKind) []float64 {
	var out []float64
	for _, r := range ps.results {
		if r.ok && r.kind == k {
			out = append(out, ms(r.rtt))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
