package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"r2t"
	"r2t/internal/repl"
	"r2t/internal/segstore"
	"r2t/internal/server"
)

// Direct calls into single layers, timed from outside the program on
// benchmark-owned instances. Each returns one sample per call, in ms.

// ledgerEntry is a charge record shaped like the ones r2td writes for q.
func ledgerEntry(ds *dataset, q queryReq) server.LedgerEntry {
	fp := sha256.Sum256([]byte(q.SQL + fmt.Sprint(q.Epsilon, q.GSQ)))
	return server.LedgerEntry{
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		Dataset:     ds.name,
		Epsilon:     q.Epsilon,
		Query:       q.SQL,
		Fingerprint: hex.EncodeToString(fp[:]),
		Epoch:       1,
	}
}

// timeLedgerAppends times (*server.Ledger).Append, write plus fsync, for
// each charge record on a ledger in dir.
func timeLedgerAppends(dir string, entries []server.LedgerEntry) ([]float64, error) {
	l, _, err := server.OpenLedger(filepath.Join(dir, "bench.ledger"))
	if err != nil {
		return nil, err
	}
	defer l.Close()
	out := make([]float64, 0, len(entries))
	for _, e := range entries {
		start := time.Now()
		if err := l.Append(e); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// benchSource accepts every replica at an empty ledger.
type benchSource struct{}

func (benchSource) Handshake(repl.Hello) (repl.Welcome, []repl.Frame, error) {
	return repl.Welcome{Node: "bench-primary"}, nil, nil
}

// benchApplier makes every ledger chunk durable the way a replica does,
// write plus fsync, before the client acknowledges it.
type benchApplier struct{ f *os.File }

func (benchApplier) Hello() (repl.Hello, error) { return repl.Hello{}, nil }
func (a benchApplier) ApplyLedger(end int64, seq uint64, data []byte) (int64, uint64, error) {
	if _, err := a.f.Write(data); err != nil {
		return 0, 0, err
	}
	return end, seq, a.f.Sync()
}
func (benchApplier) ApplyRows(repl.RowsChunk) error                   { return nil }
func (benchApplier) ApplyAnswer(uint64, []byte) error                 { return nil }
func (benchApplier) NoteHeartbeat(epoch uint64, size int64, n uint64) {}

// timeReplCommits times (*repl.Hub).Commit with minSync=1 against one
// attached repl.Client on loopback, one ledger frame per record, with the
// replica side's ledger file in dir.
func timeReplCommits(dir string, entries []server.LedgerEntry) ([]float64, error) {
	f, err := os.Create(filepath.Join(dir, "bench-replica.ledger"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hub := repl.NewHub(repl.HubConfig{Node: "bench-primary", Source: benchSource{}})
	served := make(chan struct{})
	go func() {
		defer close(served)
		hub.Serve(ln)
	}()
	cl := repl.NewClient(repl.ClientConfig{PrimaryAddr: ln.Addr().String(), Node: "bench-replica", Applier: benchApplier{f}})
	defer func() {
		cl.Close()
		ln.Close()
		<-served
		hub.Close()
	}()
	for deadline := time.Now().Add(10 * time.Second); hub.Attached() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench replica did not attach")
		}
	}
	out := make([]float64, 0, len(entries))
	var end int64
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		line = append(line, '\n')
		end += int64(len(line))
		f := repl.Frame{Type: repl.TypeLedger, Payload: repl.EncodeLedgerChunk(end, uint64(i+1), line)}
		start := time.Now()
		if err := hub.Commit(f, end, 1, 5*time.Second); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// shadow is a benchmark-owned copy of the served data: an r2t.DB over the
// same rows behind its own segstore, to which the traced run applies every
// append in the server's order. Explain and profiled re-runs on it see what
// the server saw.
type shadow struct {
	db    *r2t.DB
	store *segstore.Store
}

func openShadow(ds *dataset, dir string) (*shadow, error) {
	db, err := openReference(ds)
	if err != nil {
		return nil, err
	}
	st, err := segstore.Open(dir, db.Instance())
	if err != nil {
		return nil, err
	}
	return &shadow{db: db, store: st}, nil
}

func (s *shadow) close() error { return s.store.Close() }

// timeInsert times one (*segstore.Store).Insert of the batch.
func (s *shadow) timeInsert(a appendReq) (float64, error) {
	rows := parseRows(a.Rows)
	start := time.Now()
	if err := s.store.Insert(a.Relation, rows...); err != nil {
		return 0, err
	}
	return ms(time.Since(start)), nil
}

// syntheticBatches builds n append batches for a workload whose stream
// issues none, so segstore is still timed on its schema: new edges between
// existing nodes for the graph, new orders of existing customers for TPC-H.
func syntheticBatches(ds *dataset, seed int64, n int) []appendReq {
	rng := rand.New(rand.NewSource(seed + 99))
	out := make([]appendReq, n)
	for i := range out {
		if ds.nodes > 0 {
			rows := make([][]string, 1+rng.Intn(8))
			for j := range rows {
				rows[j] = []string{itoa(rng.Intn(ds.nodes)), itoa(rng.Intn(ds.nodes))}
			}
			out[i] = appendReq{Dataset: ds.name, Relation: "Edge", Rows: rows}
			continue
		}
		rows := make([][]string, 1+rng.Intn(8))
		for j := range rows {
			rows[j] = []string{itoa(ds.orders + i*8 + j), itoa(rng.Intn(ds.customers)), itoa(rng.Intn(2400)), pick(rng, orderPrios)}
		}
		out[i] = appendReq{Dataset: ds.name, Relation: "Orders", Rows: rows}
	}
	return out
}
