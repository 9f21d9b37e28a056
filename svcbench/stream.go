package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"r2t/internal/graph"
)

// opKind is the type of one client operation.
type opKind int

const (
	opFresh  opKind = iota // a query never asked before: charges ε and computes
	opReplay               // a repeat of one of the client's earlier fresh queries: free
	opAppend               // a durable row batch through POST /v1/append
	numOpKinds
)

var opKindNames = [numOpKinds]string{"fresh", "replay", "append"}

func (k opKind) String() string { return opKindNames[k] }

// queryReq is the body of POST /v1/query.
type queryReq struct {
	Dataset string   `json:"dataset"`
	SQL     string   `json:"sql"`
	Epsilon float64  `json:"epsilon"`
	GSQ     float64  `json:"gsq"`
	Primary []string `json:"primary,omitempty"`
}

// appendReq is the body of POST /v1/append.
type appendReq struct {
	Dataset  string     `json:"dataset"`
	Relation string     `json:"relation"`
	Rows     [][]string `json:"rows"`
}

// op is one client operation. A replay carries the query of the fresh op it
// repeats and that op's index in the client's fresh list.
type op struct {
	kind   opKind
	query  queryReq
	of     int
	append appendReq
}

// stream is one client's operation sequence: a pure function of the
// workload, its dataset (itself a function of the seed), the seed, and the
// client's index.
type stream struct {
	w       *workload
	ds      *dataset
	rng     *rand.Rand
	client  int
	clients int
	fresh   []queryReq // this client's fresh queries so far, in order
	appends int

	appendCredit, replayCredit float64
}

func newStream(w *workload, ds *dataset, seed int64, client, clients int) *stream {
	return &stream{
		w:       w,
		ds:      ds,
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17)),
		client:  client,
		clients: clients,
	}
}

// next returns the client's next operation. Op types follow their target
// shares exactly (each type accrues credit per op and is issued once its
// credit reaches one), so every seed runs the same mix and only the
// operations' constants vary.
func (s *stream) next() op {
	s.appendCredit += s.w.appendFrac
	s.replayCredit += s.w.replayFrac
	switch {
	case s.appendCredit >= 1:
		s.appendCredit--
		rel, rows := s.w.appendRows(s.rng, s.ds, s.appends, s.client+s.clients*s.appends)
		s.appends++
		return op{kind: opAppend, append: appendReq{Dataset: s.ds.name, Relation: rel, Rows: rows}}
	case s.replayCredit >= 1 && len(s.fresh) > 0:
		s.replayCredit--
		i := s.rng.Intn(len(s.fresh))
		return op{kind: opReplay, query: s.fresh[i], of: i}
	}
	q := s.w.freshQuery(s.rng, s.ds, len(s.fresh)+s.client)
	q.Dataset = s.ds.name
	// The ε offset makes the fingerprint unique across every client's fresh
	// queries, so each fresh op leads its own flight and charges once. It is
	// far below the ε ladder's spacing, so it never changes the mechanism's
	// work.
	uid := len(s.fresh)*s.clients + s.client
	q.Epsilon += float64(uid+1) * 1e-9
	s.fresh = append(s.fresh, q)
	return op{kind: opFresh, query: q, of: len(s.fresh) - 1}
}

// merged interleaves the clients' streams round-robin into the one serial
// sequence that the verification pass and the traced run issue.
type merged struct {
	streams []*stream
	n       int
}

func newMerged(w *workload, ds *dataset, seed int64, clients int) *merged {
	m := &merged{}
	for c := 0; c < clients; c++ {
		m.streams = append(m.streams, newStream(w, ds, seed, c, clients))
	}
	return m
}

// next returns the next op and the client whose stream it came from.
func (m *merged) next() (op, int) {
	c := m.n % len(m.streams)
	m.n++
	return m.streams[c].next(), c
}

func itoa(i int) string { return strconv.Itoa(i) }

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// --- graph-lp ---------------------------------------------------------------

// graphFresh draws one of the paper's graph queries (Q1-, Q2-, Q△) over a
// node-ID window whose position varies, so almost every fresh query has its
// own join core and builds and solves its own LP. GS_Q is the pattern's
// bound under roadnetpa-sim's degree promise D = 16.
func graphFresh(rng *rand.Rand, ds *dataset, n int) queryReq {
	width := ds.nodes / 2
	lo := rng.Intn(ds.nodes - width + 1)
	hi := lo + width
	var sqlText string
	var p graph.Pattern
	switch n % 3 {
	case 0:
		p = graph.Edges
		sqlText = fmt.Sprintf("SELECT COUNT(*) FROM Edge e WHERE e.src < e.dst AND e.src >= %d AND e.src < %d", lo, hi)
	case 1:
		p = graph.Paths2
		sqlText = fmt.Sprintf("SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src AND e1.src < e2.dst AND e1.src >= %d AND e1.src < %d", lo, hi)
	default:
		p = graph.Triangles
		sqlText = fmt.Sprintf("SELECT COUNT(*) FROM Edge e1, Edge e2, Edge e3 WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src AND e1.src < e2.src AND e2.src < e3.src AND e1.src >= %d AND e1.src < %d", lo, hi)
	}
	return queryReq{SQL: sqlText, Epsilon: pick(rng, []float64{0.5, 1, 2}), GSQ: p.GSQ(16), Primary: []string{"Node"}}
}

// --- tpch-service -----------------------------------------------------------

// serviceCore is one FROM/WHERE of the tpch-service pool with the aggregates
// its fresh queries vary over.
type serviceCore struct {
	from    string // FROM ... WHERE ... with one %d for the varied constant
	fixed   int    // the constant most queries use, so their cores are shared
	lo, hi  int    // range the occasional varied constant is drawn from
	aggs    []string
	primary string
}

var serviceCores = []serviceCore{
	{ // Q3
		from:  "FROM Customer c, Orders o, Lineitem l WHERE c.CK = o.CK AND o.OK = l.OK AND c.mktsegment = 'BUILDING' AND o.odate < %d AND l.sdate > 600",
		fixed: 1800, lo: 900, hi: 2400,
		aggs:    []string{"COUNT(*)", "SUM(l.qty)", "SUM(l.price)", "SUM(o.odate)"},
		primary: "Customer",
	},
	{ // Q11
		from:  "FROM PartSupp ps, Supplier s WHERE ps.SK = s.SK AND ps.availqty > %d",
		fixed: 20, lo: 0, hi: 150,
		aggs:    []string{"SUM(ps.supplycost * ps.availqty)", "COUNT(*)", "SUM(ps.availqty)"},
		primary: "Supplier",
	},
	{ // Q12
		from:  "FROM Orders o, Lineitem l WHERE o.OK = l.OK AND l.shipmode IN ('MAIL', 'SHIP') AND l.cdate < l.rdate AND l.rdate BETWEEN 600 AND %d",
		fixed: 1999, lo: 1000, hi: 2400,
		aggs:    []string{"COUNT(*)", "SUM(l.qty)"},
		primary: "Customer",
	},
	{ // Q18
		from:  "FROM Customer c, Orders o, Lineitem l WHERE c.CK = o.CK AND o.OK = l.OK AND o.opriority = '1-URGENT' AND o.odate < %d",
		fixed: 2400, lo: 600, hi: 2400,
		aggs:    []string{"SUM(l.qty)", "COUNT(*)", "SUM(l.price)"},
		primary: "Customer",
	},
	{ // Q20
		from:  "FROM Supplier s, PartSupp ps, Part p WHERE s.SK = ps.SK AND ps.PKEY = p.PKEY AND p.psize < 25 AND ps.availqty > %d",
		fixed: 100, lo: 0, hi: 180,
		aggs:    []string{"COUNT(*)", "SUM(ps.availqty)"},
		primary: "Supplier",
	},
}

// serviceSlots is the order fresh queries take the cores in: Q11 and Q20
// read no appended table, so their cores stay shared, and they take three
// slots in four. A fresh query's median then lies inside the shared-core
// mode and its p90 inside the re-executing mode, instead of on the boundary
// between the two, where run-to-run noise in the share would move it.
var serviceSlots = []int{1, 0, 4, 1, 4, 2, 1, 4, 1, 3, 4, 1, 4, 1, 0, 4, 1, 4, 2, 4, 1, 4, 3, 1}

// serviceFresh varies ε, GS_Q and the aggregate over a small pool of join
// cores; every tenth query also varies the core's constant.
func serviceFresh(rng *rand.Rand, ds *dataset, n int) queryReq {
	c := serviceCores[serviceSlots[n%len(serviceSlots)]]
	k := c.fixed
	if n%10 == 9 {
		k = c.lo + rng.Intn(c.hi-c.lo)
	}
	return queryReq{
		SQL:     "SELECT " + pick(rng, c.aggs) + " " + fmt.Sprintf(c.from, k),
		Epsilon: pick(rng, []float64{0.5, 1, 2}),
		GSQ:     pick(rng, []float64{1024, 4096, 16384}),
		Primary: []string{c.primary},
	}
}

var (
	orderPrios = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	retFlags   = []string{"A", "N", "R"}
)

// serviceAppend builds the client's n-th batch: Orders and Lineitem take
// turns, and batch sizes cycle through 1–8 rows, so the tables grow alike
// on every seed. Orders get new keys, unique across clients through seq;
// line items reference generated orders.
func serviceAppend(rng *rand.Rand, ds *dataset, n, seq int) (string, [][]string) {
	rows := make([][]string, 1+n%8)
	if n%2 == 0 {
		for i := range rows {
			ok := ds.orders + seq*8 + i
			rows[i] = []string{itoa(ok), itoa(rng.Intn(ds.customers)), itoa(rng.Intn(2400)), pick(rng, orderPrios)}
		}
		return "Orders", rows
	}
	for i := range rows {
		qty := 1 + rng.Intn(50)
		sdate := rng.Intn(2400)
		rows[i] = []string{
			itoa(rng.Intn(ds.orders)), itoa(rng.Intn(ds.parts)), itoa(rng.Intn(ds.suppliers)),
			itoa(qty), itoa(qty * (1 + rng.Intn(100))), fmt.Sprintf("0.%02d", rng.Intn(11)),
			itoa(sdate), itoa(sdate + 1 + rng.Intn(90)), itoa(sdate + 1 + rng.Intn(120)),
			pick(rng, shipModes), pick(rng, retFlags),
		}
	}
	return "Lineitem", rows
}

// --- tpch-sharded -----------------------------------------------------------

// shardedFresh draws COUNT/SUM over Customer⋈Orders, optionally with Nation,
// with varied odate and cacctbal constants. Every join pins Orders to its
// customer, so the query is shardable by CK.
func shardedFresh(rng *rand.Rand, ds *dataset, n int) queryReq {
	odate := 600 + 100*rng.Intn(19)
	var sqlText string
	if n%3 == 0 {
		sqlText = fmt.Sprintf("SELECT %s FROM Customer c, Orders o, Nation n WHERE c.CK = o.CK AND c.NK = n.NK AND n.RK = %d AND o.odate < %d",
			pick(rng, []string{"COUNT(*)", "SUM(o.odate)"}), rng.Intn(5), odate)
	} else {
		sqlText = fmt.Sprintf("SELECT %s FROM Customer c, Orders o WHERE c.CK = o.CK AND o.odate < %d AND c.cacctbal > %d",
			pick(rng, []string{"COUNT(*)", "SUM(o.odate)", "SUM(c.cacctbal + 1000)"}), odate, -1000+500*rng.Intn(20))
	}
	return queryReq{
		SQL:     sqlText,
		Epsilon: pick(rng, []float64{0.5, 1, 2}),
		GSQ:     pick(rng, []float64{1e3, 1e4, 1e5}),
		Primary: []string{"Customer"},
	}
}
