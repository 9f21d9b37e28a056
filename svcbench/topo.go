package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"r2t/internal/server"
	"r2t/internal/shard"
)

// budget is each dataset's ε budget: far above what any run can charge, so
// no request is ever refused with 402.
const budget = 1e12

// node is one in-process r2td server on a loopback port.
type node struct {
	name string
	cfg  server.Config
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{
		name: cfg.NodeName,
		cfg:  cfg,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// stop drains the HTTP server, waits for its serve loop, and closes r2td.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.done
	return n.srv.Close()
}

// topology is one running deployment. Clients send every request to entry.
type topology struct {
	entry    *node
	replica  *node
	shards   []*node
	nodes    []*node // start order; stopped in reverse
	probeEps float64 // ε charged by the readiness probe (sharded only)
	setup    time.Duration
}

// topoOptions are the per-deployment server settings the benchmark varies.
// Everything else stays at r2td's production defaults.
type topoOptions struct {
	seed   int64     // server noise seed; 0 = per-query crypto noise
	reqLog io.Writer // operator request log of the entry node; nil = off
}

func nodeConfig(ds *dataset, dir, name, dataDir string, opt topoOptions) (server.Config, error) {
	nodeDir := filepath.Join(dir, name)
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Datasets: []server.DatasetConfig{{
			Name:       ds.name,
			SchemaPath: ds.schemaPath,
			DataDir:    dataDir,
			Epsilon:    budget,
			Primary:    ds.primary,
			DurableDir: filepath.Join(nodeDir, "wal"),
		}},
		LedgerPath: filepath.Join(nodeDir, "budget.ledger"),
		Seed:       opt.seed,
		NodeName:   name,
	}, nil
}

// startTopology starts the workload's deployment under dir and waits until
// it is ready. setup covers the first server.New to readiness.
func startTopology(w *workload, ds *dataset, dir string, opt topoOptions) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.stop()
			t = nil
		}
	}()
	start := time.Now()
	add := func(cfg server.Config) (*node, error) {
		n, err := startNode(cfg)
		if err != nil {
			return nil, fmt.Errorf("starting %s: %w", cfg.NodeName, err)
		}
		t.nodes = append(t.nodes, n)
		return n, nil
	}
	switch w.topo {
	case topoPrimary:
		cfg, err := nodeConfig(ds, dir, "primary", ds.dir, opt)
		if err != nil {
			return t, err
		}
		cfg.RequestLog = opt.reqLog
		if t.entry, err = add(cfg); err != nil {
			return t, err
		}
		if err := waitReady(t.entry); err != nil {
			return t, err
		}
	case topoReplica:
		cfg, err := nodeConfig(ds, dir, "primary", ds.dir, opt)
		if err != nil {
			return t, err
		}
		cfg.RequestLog = opt.reqLog
		cfg.Role = server.RolePrimary
		cfg.ReplListen = "127.0.0.1:0"
		cfg.SyncReplicas = 1
		if t.entry, err = add(cfg); err != nil {
			return t, err
		}
		rcfg, err := nodeConfig(ds, dir, "replica", ds.dir, opt)
		if err != nil {
			return t, err
		}
		rcfg.Role = server.RoleReplica
		rcfg.PrimaryAddr = t.entry.srv.ReplAddr()
		if t.replica, err = add(rcfg); err != nil {
			return t, err
		}
		if err := waitReady(t.replica); err != nil {
			return t, err
		}
	case topoSharded:
		t.shards, err = startShards(ds, dir, opt)
		t.nodes = append(t.nodes, t.shards...)
		if err != nil {
			return t, err
		}
		rdir := filepath.Join(dir, "router")
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			return t, err
		}
		if t.entry, err = add(server.Config{
			Datasets: []server.DatasetConfig{{
				Name:       ds.name,
				SchemaPath: ds.schemaPath,
				Epsilon:    budget,
				Primary:    ds.primary,
				Partition:  "Customer",
				Shards:     shardMap(t.shards),
			}},
			LedgerPath: filepath.Join(rdir, "budget.ledger"),
			Seed:       opt.seed,
			NodeName:   "router",
			Role:       server.RoleRouter,
			RequestLog: opt.reqLog,
		}); err != nil {
			return t, err
		}
		// Ready once the router has answered one query through every shard.
		probe := probeQuery
		probe.Dataset = ds.name
		c := newClient(t.entry.url)
		defer c.close()
		var resp queryResp
		code, err := c.post("/v1/query", probe, &resp)
		if err != nil || code != http.StatusOK {
			return t, fmt.Errorf("router readiness probe: code %d: %v", code, err)
		}
		t.probeEps = resp.EpsilonCharged
	}
	t.setup = time.Since(start)
	return t, nil
}

// startShards starts one durable shard primary per shard directory, each
// serving sub-queries on its replication listener. On error it returns the
// shards already started, for the caller to stop.
func startShards(ds *dataset, dir string, opt topoOptions) ([]*node, error) {
	var shards []*node
	for i, sd := range ds.shardDirs {
		cfg, err := nodeConfig(ds, dir, fmt.Sprintf("shard%d", i), sd, opt)
		if err != nil {
			return shards, err
		}
		cfg.Role = server.RolePrimary
		cfg.ReplListen = "127.0.0.1:0"
		n, err := startNode(cfg)
		if err != nil {
			return shards, fmt.Errorf("starting %s: %w", cfg.NodeName, err)
		}
		shards = append(shards, n)
	}
	return shards, nil
}

// shardMap is the router's view of the shard nodes.
func shardMap(shards []*node) []shard.Node {
	out := make([]shard.Node, len(shards))
	for i, n := range shards {
		out[i] = shard.Node{Name: n.name, Addr: n.srv.ReplAddr()}
	}
	return out
}

// waitReady polls /readyz until it answers 200.
func waitReady(n *node) error {
	c := newClient(n.url)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, err := c.get("/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: code %d: %v", n.name, code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop stops every node, router first, and reports the first error.
func (t *topology) stop() error {
	var errs []error
	for i := len(t.nodes) - 1; i >= 0; i-- {
		errs = append(errs, t.nodes[i].stop())
	}
	t.nodes = nil
	return errors.Join(errs...)
}
