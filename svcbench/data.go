package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"r2t/internal/graph"
	"r2t/internal/schema"
	"r2t/internal/schemadesc"
	"r2t/internal/shard"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/value"
)

// dataset is one workload's generated input, written as the CSV directory
// and schema file r2td loads. Everything in it is a pure function of the
// workload seed and scale.
type dataset struct {
	name       string
	schemaPath string
	dir        string   // CSVs of the whole instance (the union of all shards)
	shardDirs  []string // per-shard CSVs, sharded workloads only
	primary    []string
	rows       map[string]int // initial row count per relation

	// Key ranges the request streams draw constants and append keys from.
	nodes                       int // graph: node IDs are 0..nodes-1
	customers, suppliers, parts int // tpch: keys are 0..n-1
	orders                      int // tpch: OK values are 0..orders-1
}

const graphSchema = "Node(ID*)\nEdge(src->Node, dst->Node)\n"

// tpchSchemaLines holds the cmd/r2t schema line of every TPC-H relation, in
// the FK-topological order of tpch.Schema.
var tpchSchemaLines = map[string]string{
	"Region":   "Region(RK*, rname)",
	"Nation":   "Nation(NK*, RK->Region, nname)",
	"Supplier": "Supplier(SK*, NK->Nation, sacctbal)",
	"Customer": "Customer(CK*, NK->Nation, mktsegment, cacctbal)",
	"Part":     "Part(PKEY*, brand, ptype, psize, retail)",
	"PartSupp": "PartSupp(PKEY->Part, SK->Supplier, availqty, supplycost)",
	"Orders":   "Orders(OK*, CK->Customer, odate, opriority)",
	"Lineitem": "Lineitem(OK->Orders, PKEY->Part, SK->Supplier, qty, price, discount, sdate, cdate, rdate, shipmode, returnflag)",
}

// genGraph writes roadnetpa-sim at scale 0.25·scale with both directions of
// every undirected edge, the layout cmd/datagen emits.
func genGraph(dir string, scale float64, seed int64) (*dataset, error) {
	g := graph.DatasetByName("roadnetpa-sim").Build(0.25*scale, seed)
	s, err := schemadesc.Parse("graph", graphSchema)
	if err != nil {
		return nil, err
	}
	inst := storage.NewInstance(s)
	for u := 0; u < g.N; u++ {
		inst.MustInsert("Node", storage.Row{value.IntV(int64(u))})
		for _, v := range g.Adj[u] {
			inst.MustInsert("Edge", storage.Row{value.IntV(int64(u)), value.IntV(int64(v))})
		}
	}
	ds := &dataset{name: "graph", dir: dir, primary: []string{"Node"}, nodes: g.N}
	if err := ds.write(inst, graphSchema); err != nil {
		return nil, err
	}
	return ds, nil
}

// genTPCH writes the named TPC-H relations at scale factor sf. With shards >
// 1 it also splits the rows the way a deployment loader does: the partition
// relation by its key, FK-routed relations by their reference, broadcast
// relations whole on every shard.
func genTPCH(dir string, sf float64, seed int64, rels []string, shards int) (*dataset, error) {
	src := tpch.Generate(tpch.GenOptions{SF: sf, Seed: seed})
	var lines []string
	keep := make(map[string]bool, len(rels))
	for _, r := range rels {
		keep[r] = true
	}
	for _, r := range src.Schema.Names() {
		if keep[r] {
			lines = append(lines, tpchSchemaLines[r])
		}
	}
	text := strings.Join(lines, "\n") + "\n"
	s, err := schemadesc.Parse("tpch", text)
	if err != nil {
		return nil, err
	}
	union := storage.NewInstance(s)
	for _, r := range s.Names() {
		if err := union.Insert(r, src.Table(r).Rows...); err != nil {
			return nil, err
		}
	}
	ds := &dataset{
		name:      "tpch",
		dir:       dir,
		primary:   []string{"Customer"},
		customers: src.Table("Customer").Len(),
		suppliers: src.Table("Supplier").Len(),
		parts:     src.Table("Part").Len(),
		orders:    src.Table("Orders").Len(),
	}
	if err := ds.write(union, text); err != nil {
		return nil, err
	}
	if shards <= 1 {
		return ds, nil
	}
	routing, err := shard.NewRouting(s, "Customer")
	if err != nil {
		return nil, err
	}
	parts := make([]*storage.Instance, shards)
	for i := range parts {
		parts[i] = storage.NewInstance(s)
	}
	for _, r := range s.Names() {
		for _, row := range union.Table(r).Rows {
			owner, broadcast, err := routing.RouteRow(r, row, shards)
			if err != nil {
				return nil, err
			}
			for i, p := range parts {
				if broadcast || i == owner {
					if err := p.Insert(r, row); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for i, p := range parts {
		d := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := writeCSVs(p, d); err != nil {
			return nil, err
		}
		ds.shardDirs = append(ds.shardDirs, d)
	}
	return ds, nil
}

// write stores the instance's CSVs and the schema file under ds.dir.
func (ds *dataset) write(inst *storage.Instance, schemaText string) error {
	if err := writeCSVs(inst, ds.dir); err != nil {
		return err
	}
	ds.schemaPath = filepath.Join(ds.dir, ds.name+".schema")
	ds.rows = make(map[string]int)
	for _, r := range inst.Schema.Names() {
		ds.rows[r] = inst.Table(r).Len()
	}
	return os.WriteFile(ds.schemaPath, []byte(schemaText), 0o644)
}

func writeCSVs(inst *storage.Instance, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range inst.Schema.Names() {
		if err := inst.WriteCSVFile(r, filepath.Join(dir, r+".csv")); err != nil {
			return err
		}
	}
	return nil
}

// loadSchema parses the dataset's schema file, for benchmark-owned DBs.
func (ds *dataset) loadSchema() (*schema.Schema, error) {
	return schemadesc.ParseFile(ds.schemaPath)
}
