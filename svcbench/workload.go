package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
)

// topologyKind is the shape of the r2td deployment a workload drives.
type topologyKind int

const (
	topoPrimary topologyKind = iota // one durable primary, no replica
	topoReplica                     // durable primary + one replica at SyncReplicas=1
	topoSharded                     // router in front of two durable shard primaries
)

// workload is one traffic mix against one topology. The "why" of each is
// recorded in BENCHMARK.json; the comments here say what it isolates.
type workload struct {
	name       string
	topo       topologyKind
	replayFrac float64 // share of ops that repeat an earlier fresh query
	appendFrac float64 // share of ops that append rows
	verifyOps  int     // length of the seeded verification pass
	gen        func(dir string, scale float64, seed int64) (*dataset, error)
	freshQuery func(rng *rand.Rand, ds *dataset, n int) queryReq                  // n: the fresh query's index, which picks its template
	appendRows func(rng *rand.Rand, ds *dataset, n, seq int) (string, [][]string) // n: the client's append index; seq: unique across clients
}

var workloads = []*workload{
	// LP-bound: node-DP graph queries whose LPs dominate a fresh query, on a
	// single durable primary. Ledger, cache and transport are a few percent.
	{
		name:       "graph-lp",
		topo:       topoPrimary,
		replayFrac: 0.2,
		verifyOps:  16,
		gen:        genGraph,
		freshQuery: graphFresh,
	},
	// Charge-path and write-bound: cheap shared-core TPC-H queries, so the
	// ε-ledger fsync, the replica ack, the answer cache and HTTP dominate,
	// with appends invalidating cores on the same tables.
	{
		name:       "tpch-service",
		topo:       topoReplica,
		replayFrac: 0.4,
		appendFrac: 0.2,
		verifyOps:  40,
		gen: func(dir string, scale float64, seed int64) (*dataset, error) {
			return genTPCH(dir, 0.2*scale, seed,
				[]string{"Region", "Nation", "Supplier", "Customer", "Part", "PartSupp", "Orders", "Lineitem"}, 1)
		},
		freshQuery: serviceFresh,
		appendRows: serviceAppend,
	},
	// Scatter/merge-bound: the shardable TPC-H subset behind a router and two
	// shards. Truncation is closed-form, so LP changes should not move it.
	{
		name:       "tpch-sharded",
		topo:       topoSharded,
		replayFrac: 0.3,
		verifyOps:  30,
		gen: func(dir string, scale float64, seed int64) (*dataset, error) {
			return genTPCH(dir, scale, seed, []string{"Region", "Nation", "Customer", "Orders"}, 2)
		},
		freshQuery: shardedFresh,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want graph-lp, tpch-service or tpch-sharded)", name)
}

// generate builds the workload's dataset under dir.
func (w *workload) generate(dir string, scale float64, seed int64) (*dataset, error) {
	return w.gen(filepath.Join(dir, "data"), scale, seed)
}
