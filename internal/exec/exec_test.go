package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/value"
)

func graphSchema() *schema.Schema {
	return schema.MustNew(
		&schema.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []schema.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
}

// graphInstance loads an undirected graph: every edge is stored in both
// directions, the convention of Example 3.1.
func graphInstance(n int, edges [][2]int) *storage.Instance {
	inst := storage.NewInstance(graphSchema())
	for i := 0; i < n; i++ {
		inst.MustInsert("Node", storage.Row{value.IntV(int64(i))})
	}
	for _, e := range edges {
		inst.MustInsert("Edge", storage.Row{value.IntV(int64(e[0])), value.IntV(int64(e[1]))})
		inst.MustInsert("Edge", storage.Row{value.IntV(int64(e[1])), value.IntV(int64(e[0]))})
	}
	return inst
}

func mustRun(t *testing.T, src string, s *schema.Schema, priv schema.PrivateSpec, inst *storage.Instance) *Result {
	t.Helper()
	q, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q, s, priv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const edgeCountSQL = `SELECT count(*) FROM Node AS Node1, Node AS Node2, Edge
	WHERE Edge.src = Node1.ID AND Edge.dst = Node2.ID AND Node1.ID < Node2.ID`

const triangleSQL = `SELECT count(*) FROM Edge e1, Edge e2, Edge e3
	WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
	  AND e1.src < e2.src AND e2.src < e3.src`

func TestEdgeCount(t *testing.T) {
	// A triangle plus a pendant edge: 4 undirected edges.
	inst := graphInstance(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	res := mustRun(t, edgeCountSQL, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}}, inst)
	if got := res.TrueAnswer(); got != 4 {
		t.Fatalf("edge count = %g, want 4", got)
	}
	// Each edge references its two endpoints.
	for k, row := range res.Rows {
		if len(row.RefIDs) != 2 {
			t.Fatalf("edge row refs = %v", res.Refs(k))
		}
	}
	// Node 2 touches 3 edges.
	sens := res.SensitivityByTuple()
	if got := sens[TupleRef{Rel: "Node", Key: value.IntV(2)}]; got != 3 {
		t.Errorf("S(node 2) = %g, want 3", got)
	}
	if got := res.MaxTupleSensitivity(); got != 3 {
		t.Errorf("DS = %g, want 3", got)
	}
	if got := res.NumIndividuals(); got != 4 {
		t.Errorf("individuals = %d, want 4", got)
	}
}

func TestTriangleCount(t *testing.T) {
	// Two triangles sharing the edge (1,2).
	inst := graphInstance(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}})
	res := mustRun(t, triangleSQL, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}}, inst)
	if got := res.TrueAnswer(); got != 2 {
		t.Fatalf("triangle count = %g, want 2", got)
	}
	for k, row := range res.Rows {
		if len(row.RefIDs) != 3 {
			t.Fatalf("triangle refs = %v", res.Refs(k))
		}
	}
	// Nodes 1 and 2 are in both triangles.
	sens := res.SensitivityByTuple()
	for _, id := range []int64{1, 2} {
		if got := sens[TupleRef{Rel: "Node", Key: value.IntV(id)}]; got != 2 {
			t.Errorf("S(node %d) = %g, want 2", id, got)
		}
	}
}

func TestLength2PathCompletedQuery(t *testing.T) {
	// Wedges on a path 0-1-2: exactly one (0,1,2), but the join without a
	// simple-path predicate also counts 0-1-0 style walks; use predicates to
	// keep genuine paths with distinct endpoints, counted once.
	inst := graphInstance(3, [][2]int{{0, 1}, {1, 2}})
	src := `SELECT COUNT(*) FROM Edge e1, Edge e2
	        WHERE e1.dst = e2.src AND e1.src < e2.dst`
	res := mustRun(t, src, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}}, inst)
	if got := res.TrueAnswer(); got != 1 {
		t.Fatalf("wedge count = %g, want 1", got)
	}
	// The completed query references all three nodes.
	if got := res.Refs(0); len(got) != 3 {
		t.Fatalf("wedge refs = %v, want 3 nodes", got)
	}
}

func tpchMiniSchema() *schema.Schema {
	return schema.MustNew(
		&schema.Relation{Name: "Customer", Attrs: []string{"CK", "mkt"}, PK: "CK"},
		&schema.Relation{Name: "Supplier", Attrs: []string{"SK"}, PK: "SK"},
		&schema.Relation{Name: "Orders", Attrs: []string{"OK", "CK", "odate"}, PK: "OK",
			FKs: []schema.FK{{Attr: "CK", Ref: "Customer"}}},
		&schema.Relation{Name: "Lineitem", Attrs: []string{"OK", "SK", "price", "discount"},
			FKs: []schema.FK{{Attr: "OK", Ref: "Orders"}, {Attr: "SK", Ref: "Supplier"}}},
	)
}

func tpchMiniInstance() *storage.Instance {
	inst := storage.NewInstance(tpchMiniSchema())
	inst.MustInsert("Customer",
		storage.Row{value.IntV(1), value.StringV("A")},
		storage.Row{value.IntV(2), value.StringV("B")})
	inst.MustInsert("Supplier", storage.Row{value.IntV(7)}, storage.Row{value.IntV(8)})
	inst.MustInsert("Orders",
		storage.Row{value.IntV(10), value.IntV(1), value.StringV("2020-09-01")},
		storage.Row{value.IntV(11), value.IntV(2), value.StringV("2020-07-01")})
	inst.MustInsert("Lineitem",
		storage.Row{value.IntV(10), value.IntV(7), value.FloatV(100), value.FloatV(0.1)},
		storage.Row{value.IntV(10), value.IntV(8), value.FloatV(50), value.FloatV(0)},
		storage.Row{value.IntV(11), value.IntV(7), value.FloatV(30), value.FloatV(0.5)})
	return inst
}

func TestSumWithMultiplePrimaryPrivate(t *testing.T) {
	// Example 9.1: SUM(price·(1−discount)) with Supplier and Customer both
	// primary private.
	src := `SELECT SUM(price * (1 - discount))
	        FROM Supplier, Lineitem, Orders, Customer
	        WHERE Supplier.SK = Lineitem.SK AND Lineitem.OK = Orders.OK
	          AND Orders.CK = Customer.CK AND Orders.odate >= '2020-08-01'`
	res := mustRun(t, src, tpchMiniSchema(), schema.PrivateSpec{Primary: []string{"Supplier", "Customer"}}, tpchMiniInstance())
	// Only order 10 passes the date filter: 100·0.9 + 50·1 = 140.
	if got := res.TrueAnswer(); math.Abs(got-140) > 1e-9 {
		t.Fatalf("sum = %g, want 140", got)
	}
	sens := res.SensitivityByTuple()
	if got := sens[TupleRef{Rel: "Customer", Key: value.IntV(1)}]; math.Abs(got-140) > 1e-9 {
		t.Errorf("S(customer 1) = %g, want 140", got)
	}
	if got := sens[TupleRef{Rel: "Supplier", Key: value.IntV(7)}]; math.Abs(got-90) > 1e-9 {
		t.Errorf("S(supplier 7) = %g, want 90", got)
	}
	if got := sens[TupleRef{Rel: "Supplier", Key: value.IntV(8)}]; math.Abs(got-50) > 1e-9 {
		t.Errorf("S(supplier 8) = %g, want 50", got)
	}
	// Every lineitem row references exactly one supplier and one customer.
	for k, row := range res.Rows {
		if len(row.RefIDs) != 2 {
			t.Fatalf("refs = %v, want supplier+customer", res.Refs(k))
		}
	}
}

func TestNegativeSumRejected(t *testing.T) {
	src := `SELECT SUM(0 - price) FROM Lineitem`
	q := sql.MustParse(src)
	p, err := plan.Build(q, tpchMiniSchema(), schema.PrivateSpec{Primary: []string{"Customer"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, tpchMiniInstance()); err == nil {
		t.Fatal("negative ψ should be rejected")
	}
}

func TestProjectionExample71(t *testing.T) {
	// Example 7.1: R1 = {a1,a2}, R2 = {(ai,bj)}. COUNT(DISTINCT x2) = m, and
	// DS = 0 while IS = m.
	s := schema.MustNew(
		&schema.Relation{Name: "R1", Attrs: []string{"x1"}, PK: "x1"},
		&schema.Relation{Name: "R2", Attrs: []string{"x1", "x2"},
			FKs: []schema.FK{{Attr: "x1", Ref: "R1"}}},
	)
	inst := storage.NewInstance(s)
	m := 5
	for i := 1; i <= 2; i++ {
		inst.MustInsert("R1", storage.Row{value.IntV(int64(i))})
		for j := 1; j <= m; j++ {
			inst.MustInsert("R2", storage.Row{value.IntV(int64(i)), value.IntV(int64(j))})
		}
	}
	res := mustRun(t, "SELECT COUNT(DISTINCT R2.x2) FROM R2", s, schema.PrivateSpec{Primary: []string{"R1"}}, inst)
	if got := res.TrueAnswer(); got != float64(m) {
		t.Fatalf("count distinct = %g, want %d", got, m)
	}
	if got := res.MaxTupleSensitivity(); got != float64(m) {
		t.Errorf("IS = %g, want %d", got, m)
	}
	if got := res.DownwardSensitivity(); got != 0 {
		t.Errorf("DS = %g, want 0 (overlapping contributions)", got)
	}
	if len(res.Groups) != m {
		t.Errorf("groups = %d, want %d", len(res.Groups), m)
	}
}

func TestSortedTupleRefsDeterministic(t *testing.T) {
	inst := graphInstance(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	res := mustRun(t, edgeCountSQL, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}}, inst)
	refs := res.SortedTupleRefs()
	if len(refs) != 4 {
		t.Fatalf("refs = %v", refs)
	}
	if !sort.SliceIsSorted(refs, func(i, j int) bool {
		return value.Less(refs[i].Key, refs[j].Key)
	}) {
		t.Error("refs not sorted")
	}
}

// TestAgainstReference cross-checks the hash-join executor against the
// brute-force oracle on random graphs and the repository's standard queries.
func TestAgainstReference(t *testing.T) {
	queries := []string{
		edgeCountSQL,
		triangleSQL,
		`SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src AND e1.src < e2.dst`,
		`SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`,
		`SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`,
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		inst := graphInstance(n, edges)
		for _, src := range queries {
			q := sql.MustParse(src)
			p, err := plan.Build(q, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, inst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runReference(p, inst)
			if err != nil {
				t.Fatal(err)
			}
			if got.TrueAnswer() != want.TrueAnswer() {
				t.Fatalf("trial %d query %q: answer %g vs reference %g", trial, src, got.TrueAnswer(), want.TrueAnswer())
			}
			gs, ws := got.SensitivityByTuple(), want.SensitivityByTuple()
			if len(gs) != len(ws) {
				t.Fatalf("trial %d query %q: %d vs %d sensitive tuples", trial, src, len(gs), len(ws))
			}
			for k, v := range ws {
				if math.Abs(gs[k]-v) > 1e-9 {
					t.Fatalf("trial %d query %q: S(%v) = %g vs reference %g", trial, src, k, gs[k], v)
				}
			}
			if got.DownwardSensitivity() != want.DownwardSensitivity() {
				t.Fatalf("trial %d query %q: DS %g vs reference %g", trial, src, got.DownwardSensitivity(), want.DownwardSensitivity())
			}
		}
	}
}

func TestEmptyJoin(t *testing.T) {
	inst := graphInstance(3, nil) // no edges
	res := mustRun(t, edgeCountSQL, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}}, inst)
	if res.TrueAnswer() != 0 || len(res.Rows) != 0 {
		t.Fatalf("empty graph gave %g", res.TrueAnswer())
	}
}
