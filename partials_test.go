package r2t

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"r2t/internal/shard"
)

// buildShardedShop generates one seeded shop instance twice: as a single
// unsharded DB and as nShards shard-local DBs populated through the shard
// routing rules (partitioned rows on their owner, broadcast rows everywhere).
func buildShardedShop(t *testing.T, rng *rand.Rand, nShards int) (*DB, []*DB) {
	t.Helper()
	s := MustSchema(
		&Relation{Name: "Catalog", Attrs: []string{"sku"}, PK: "sku"},
		&Relation{Name: "Customer", Attrs: []string{"CK", "region"}, PK: "CK"},
		&Relation{Name: "Orders", Attrs: []string{"OK", "CK", "sku", "price"}, PK: "OK",
			FKs: []FK{{Attr: "CK", Ref: "Customer"}, {Attr: "sku", Ref: "Catalog"}}},
	)
	routing, err := shard.NewRouting(s, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	full := NewDB(s)
	shards := make([]*DB, nShards)
	for i := range shards {
		shards[i] = NewDB(s)
	}
	insert := func(rel string, vals ...Value) {
		t.Helper()
		if err := full.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
		owner, bc, err := routing.RouteRow(rel, vals, nShards)
		if err != nil {
			t.Fatal(err)
		}
		if bc {
			for _, sdb := range shards {
				if err := sdb.Insert(rel, vals...); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		if err := shards[owner].Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	const nSKU = 8
	for sku := int64(0); sku < nSKU; sku++ {
		insert("Catalog", Int(sku))
	}
	regions := []string{"EU", "US", "APAC"}
	ok := int64(0)
	for c := int64(0); c < 60; c++ {
		insert("Customer", Int(c), Str(regions[rng.Intn(len(regions))]))
		for o, n := 0, rng.Intn(5); o < n; o++ {
			insert("Orders", Int(ok), Int(c), Int(rng.Int63n(nSKU)), Int(rng.Int63n(101)-20))
			ok++
		}
	}
	if err := full.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for i, sdb := range shards {
		if err := sdb.CheckIntegrity(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return full, shards
}

// shardPartials evaluates q's partial on every shard: the router's gather
// step, minus the wire.
func shardPartials(t *testing.T, shards []*DB, q string, opt Options) []*Partial {
	t.Helper()
	parts := make([]*Partial, len(shards))
	for i, sdb := range shards {
		part, err := sdb.Partials(context.Background(), q, opt)
		if err != nil {
			t.Fatalf("shard %d partials: %v", i, err)
		}
		parts[i] = part
	}
	return parts
}

// bitEqual requires exact floating-point identity, the sharding invariant for
// integer-ψ workloads (DESIGN.md §16).
func bitEqual(t *testing.T, label string, sharded, twin float64) {
	t.Helper()
	if math.Float64bits(sharded) != math.Float64bits(twin) {
		t.Errorf("%s: sharded release %v != unsharded %v (bits %x vs %x)",
			label, sharded, twin, math.Float64bits(sharded), math.Float64bits(twin))
	}
}

// TestShardedEquivalenceRandomized: seeded SJA workloads — COUNT and a
// filtered SUM through a broadcast join — over 1, 2 and 4 shards. With paired
// seeded noise sources the release over the merged partials (ReleasePartials
// on a row-less router DB) must be bitwise equal to the unsharded twin.
func TestShardedEquivalenceRandomized(t *testing.T) {
	const (
		countQ = `SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`
		sumQ   = `SELECT SUM(o.price) FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND o.price > 0`
	)
	ctx := context.Background()
	for _, nShards := range []int{1, 2, 4} {
		for seed := int64(0); seed < 6; seed++ {
			full, shards := buildShardedShop(t, rand.New(rand.NewSource(seed)), nShards)
			router := NewDB(full.Schema())
			base := Options{GSQ: 4096, Primary: []string{"Customer"}, EarlyStop: true}
			noiseSeed := 1000*seed + int64(nShards)

			// Every workload must clear the router's static shardability gate.
			cols := map[string]string{"Customer": "CK", "Orders": "CK"}
			for _, q := range []string{countQ, sumQ} {
				if err := full.ShardCheck(q, base.Primary, "Customer", cols); err != nil {
					t.Fatalf("ShardCheck(%s): %v", q, err)
				}
			}

			for i, w := range []struct {
				label, q string
				eps      float64
			}{{"count", countQ, 1}, {"sum", sumQ, 2}} {
				opt := base
				opt.Epsilon = w.eps
				opt.Noise = NewNoiseSource(noiseSeed + int64(i))
				twin, err := full.Query(w.q, opt)
				if err != nil {
					t.Fatal(err)
				}
				parts := shardPartials(t, shards, w.q, opt)
				opt.Noise = NewNoiseSource(noiseSeed + int64(i))
				got, err := router.ReleasePartials(ctx, w.q, parts, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.TrueAnswer != twin.TrueAnswer {
					t.Fatalf("%s: merged true answer %g != twin %g", w.label, got.TrueAnswer, twin.TrueAnswer)
				}
				bitEqual(t, w.label, got.Estimate, twin.Estimate)
			}
		}
	}
}

// TestPartialsGates: the partial-producing entry point rejects the shapes the
// router must never scatter.
func TestPartialsGates(t *testing.T) {
	full, _ := buildShardedShop(t, rand.New(rand.NewSource(1)), 1)
	opt := Options{Epsilon: 1, GSQ: 64, Primary: []string{"Customer"}}
	ctx := context.Background()
	badMech := opt
	badMech.Mechanism = "laplace"
	if _, err := full.Partials(ctx, `SELECT COUNT(*) FROM Orders`, badMech); err == nil {
		t.Error("non-r2t mechanism must not produce partials")
	}
	if _, err := full.Partials(ctx, `SELECT COUNT(DISTINCT o.CK) FROM Orders o`, opt); err == nil {
		t.Error("projection query must not produce partials")
	}
	signed := opt
	signed.AllowNegativeSum = true
	if _, err := full.Partials(ctx, `SELECT SUM(o.price) FROM Customer c, Orders o WHERE c.CK = o.CK`, signed); err == nil {
		t.Error("signed split must not produce partials")
	}
	if err := full.ShardCheck(`SELECT COUNT(*) FROM Catalog`, opt.Primary, "Customer",
		map[string]string{"Customer": "CK", "Orders": "CK"}); err == nil {
		t.Error("query without the partition relation must fail ShardCheck")
	}
	// Orders joined on a non-partition column spans shards.
	if err := full.ShardCheck(`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.OK`,
		opt.Primary, "Customer", map[string]string{"Customer": "CK", "Orders": "CK"}); err == nil {
		t.Error("join result spanning shards must fail ShardCheck")
	}
}
