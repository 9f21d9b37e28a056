package main

import (
	"fmt"
	"math"
	"path/filepath"

	"r2t"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// verifySeed is the fixed server noise seed of the verification pass.
const verifySeed = 20220612

// probeQuery is the sharded topology's readiness probe. It goes through the
// router's noise source before any workload query, so the reference replays
// it too.
var probeQuery = queryReq{SQL: "SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK", Epsilon: 0.001, GSQ: 1000}

// openReference loads an in-process r2t.DB over the dataset's rows (the
// union of all shards).
func openReference(ds *dataset) (*r2t.DB, error) {
	s, err := ds.loadSchema()
	if err != nil {
		return nil, err
	}
	db := r2t.NewDB(s)
	for _, rel := range s.Names() {
		if err := db.LoadCSV(rel, filepath.Join(ds.dir, rel+".csv")); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// refOptions are the engine options r2td applies to a query request.
func refOptions(q queryReq, ds *dataset, noise r2t.NoiseSource) r2t.Options {
	primary := q.Primary
	if len(primary) == 0 {
		primary = ds.primary
	}
	return r2t.Options{Epsilon: q.Epsilon, GSQ: q.GSQ, Primary: primary, EarlyStop: true, Noise: noise}
}

// parseRows parses append rows exactly as r2td does.
func parseRows(rows [][]string) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, fields := range rows {
		row := make(storage.Row, len(fields))
		for j, f := range fields {
			row[j] = value.Parse(f)
		}
		out[i] = row
	}
	return out
}

// verifyPass runs the first n ops of the merged stream serially against a
// topology with a fixed noise seed, and checks every release bitwise against
// a reference DB answering the same sequence with r2t.NewNoiseSource(seed).
// Appends reach the reference in the same order. It returns the topology's
// set-up time.
func verifyPass(w *workload, ds *dataset, dir string, seed int64, clients, n int) (setupTime float64, err error) {
	ref, err := openReference(ds)
	if err != nil {
		return 0, err
	}
	noise := r2t.NewNoiseSource(verifySeed)
	t, err := startTopology(w, ds, dir, topoOptions{seed: verifySeed})
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := t.stop(); err == nil && serr != nil {
			err = serr
		}
	}()
	if w.topo == topoSharded {
		if _, err := ref.Query(probeQuery.SQL, refOptions(probeQuery, ds, noise)); err != nil {
			return 0, fmt.Errorf("reference probe: %w", err)
		}
	}
	ck := newChecker(clients)
	cl := newClient(t.entry.url)
	defer cl.close()
	m := newMerged(w, ds, seed, clients)
	for i := 0; i < n; i++ {
		o, c := m.next()
		r, err := ck.do(cl, c, o)
		if err != nil {
			return 0, fmt.Errorf("verification op %d: %w", i, err)
		}
		if !r.ok {
			return 0, fmt.Errorf("verification op %d (%s) failed", i, o.kind)
		}
		switch r.kind {
		case opFresh:
			a, err := ref.Query(o.query.SQL, refOptions(o.query, ds, noise))
			if err != nil {
				return 0, fmt.Errorf("reference query %q: %w", o.query.SQL, err)
			}
			if math.Float64bits(a.Estimate) != math.Float64bits(r.q.Estimate) {
				return 0, fmt.Errorf("verification op %d: r2td released %v for %q, reference %v", i, r.q.Estimate, o.query.SQL, a.Estimate)
			}
		case opAppend:
			if err := ref.Instance().Insert(o.append.Relation, parseRows(o.append.Rows)...); err != nil {
				return 0, fmt.Errorf("reference append: %w", err)
			}
		}
	}
	if _, err := ck.checkEnd(t, ds); err != nil {
		return 0, fmt.Errorf("verification pass: %w", err)
	}
	return t.setup.Seconds(), nil
}
