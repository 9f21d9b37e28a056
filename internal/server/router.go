// Router tier for sharded datasets (DESIGN.md §16).
//
// A sharded dataset's rows are hash-partitioned on the partition relation's
// primary key across shard nodes, each a full r2td primary. The router holds
// the schema, the shard map, and — crucially — the ONLY ε-ledger that
// matters: it charges each admitted request exactly once, BEFORE scattering,
// and the shards evaluate uncharged, noise-free sub-queries whose truncation
// partials merge into the unsharded operator. Charging before the scatter is
// what makes retries and hedging free (a sub-query consumes no ε, so the
// router may race duplicates), and what keeps a failed scatter on the safe
// side of the accounting: the ε stands, the answer doesn't (exactly the
// engine's cancelled-run discipline — refunds would allow free re-runs).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"r2t"
	"r2t/internal/mech"
	"r2t/internal/shard"
	"r2t/internal/truncation"
)

// errShardScatter marks a scatter that did not gather every shard's partial.
// The charge stands; classifyError maps it to 503 + Retry-After.
var errShardScatter = errors.New("r2td: sharded evaluation failed (the charged ε stands)")

// routerQuery answers one query over a sharded dataset. Role gates have run;
// the structural gates here are charge-free, then the leader closure charges
// once and scatters.
func (s *Server) routerQuery(ctx context.Context, w http.ResponseWriter, ds *Dataset, req *queryRequest, opt r2t.Options, choice *mech.Choice, normalized, key string, start time.Time) {
	// Only r2t's truncation partials merge across shards; every other
	// mechanism needs the whole instance in one place.
	if choice.Mech != mech.MechR2T {
		s.fail(w, ds.Name, ds, statusInvalid, start, http.StatusBadRequest,
			fmt.Errorf("mechanism %q cannot run on sharded dataset %q (partials merge only under r2t)", choice.Mech, ds.Name))
		return
	}
	// The privacy unit must be the partition relation: rows are co-located by
	// ITS key, so that is the only primary set under which per-shard partials
	// partition the join.
	if len(opt.Primary) != 1 || opt.Primary[0] != ds.Routing.Partition {
		s.fail(w, ds.Name, ds, statusInvalid, start, http.StatusBadRequest,
			fmt.Errorf("sharded dataset %q supports primary=[%q] only, got %v", ds.Name, ds.Routing.Partition, opt.Primary))
		return
	}
	// Static shardability: every join must pin its partition column to the
	// partition key, so no join result spans shards.
	if err := ds.DB.ShardCheck(req.SQL, opt.Primary, ds.Routing.Partition, ds.Routing.PartitionCols()); err != nil {
		s.fail(w, ds.Name, ds, statusInvalid, start, http.StatusBadRequest, err)
		return
	}

	ans, cached, err := s.cache.do(ctx, key, func() (ca cachedAnswer, err error) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panicRecovered()
				err = fmt.Errorf("r2td: panic during sharded evaluation (any charged ε stands): %v", p)
			}
		}()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			return cachedAnswer{}, errSaturated
		}
		// Charge BEFORE scatter: the router's ledger is the single charge
		// authority for the shard group, and the charge must be durable
		// before any shard can observe the sub-query. From here on the ε
		// stands even if every shard is dead.
		if err := ds.Budget.SpendWith(opt.Epsilon, func() error {
			return s.ledger.Append(LedgerEntry{
				Dataset:     ds.Name,
				Epsilon:     opt.Epsilon,
				Query:       normalized,
				Fingerprint: key,
				Epoch:       s.repl.epoch.Load(),
			})
		}); err != nil {
			return cachedAnswer{}, err
		}
		merged, err := s.scatterAndMerge(ctx, ds, req.SQL, opt)
		if err != nil {
			return cachedAnswer{}, err
		}
		be, ok := mech.ByName(mech.MechR2T)
		if !ok {
			return cachedAnswer{}, fmt.Errorf("r2td: no r2t backend")
		}
		out, err := be.Run(merged, mech.Params{
			Epsilon:   opt.Epsilon,
			GSQ:       opt.GSQ,
			Beta:      opt.Beta,
			Noise:     opt.Noise,
			EarlyStop: opt.EarlyStop,
			Interrupt: ctx.Done(),
		})
		if err != nil {
			if ctx.Err() != nil {
				return cachedAnswer{}, ctx.Err()
			}
			return cachedAnswer{}, err
		}
		s.metrics.mechSelected(ds.Name, mech.MechR2T)
		return cachedAnswer{
			Estimate:  out.Estimate,
			Epsilon:   opt.Epsilon,
			Query:     normalized,
			Mechanism: mech.MechR2T,
			At:        time.Now(),
		}, nil
	})
	if err != nil {
		status, code := classifyError(err)
		s.fail(w, ds.Name, ds, status, start, code, err)
		return
	}
	s.respondQuery(w, ds, normalized, ans, cached, start, nil)
}

// scatterAndMerge sends the uncharged sub-query to every shard and merges the
// gathered partials into the union operator. Any shard failing (after the
// pool's hedged retries) fails the whole evaluation — a merge over a subset
// of shards would silently undercount.
func (s *Server) scatterAndMerge(ctx context.Context, ds *Dataset, sqlText string, opt r2t.Options) (*truncation.MergedPartition, error) {
	payload := shard.EncodeSubQuery(shard.SubQuery{
		Dataset: ds.Name,
		SQL:     sqlText,
		Primary: opt.Primary,
		Epsilon: opt.Epsilon,
		GSQ:     opt.GSQ,
		Beta:    opt.Beta,
	})
	raws, err := ds.Pool.Scatter(ctx, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errShardScatter, err)
	}
	parts := make([]*truncation.Partial, len(raws))
	for i, raw := range raws {
		reply, err := shard.DecodeReply(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %q: %v", errShardScatter, ds.Pool.Node(i).Name, err)
		}
		if reply.Err != "" {
			// An application-level shard failure is data-dependent (it ran the
			// evaluation); surface it as the uniform internal error, charged.
			return nil, fmt.Errorf("shard %q sub-query failed: %s", ds.Pool.Node(i).Name, reply.Err)
		}
		if len(reply.Units) != 1 {
			return nil, fmt.Errorf("shard %q returned %d partial units, want 1", ds.Pool.Node(i).Name, len(reply.Units))
		}
		parts[i] = reply.Units[0]
	}
	return truncation.MergePartials(parts)
}

// serveShardSubQuery is the shard-side half: the repl hub calls it for each
// TypeSubQuery frame. The evaluation is UNCHARGED and noise-free — it
// produces mergeable partials, raw private data that travels only on the
// operator-side replication plane, never to analysts. Application failures
// ride inside the reply so the connection stays reusable; only an
// undecodable request (a transport fault) errors the connection.
func (s *Server) serveShardSubQuery(payload []byte) ([]byte, error) {
	q, err := shard.DecodeSubQuery(payload)
	if err != nil {
		return nil, err
	}
	appErr := func(err error) []byte { return shard.EncodeReply(shard.Reply{Err: err.Error()}) }
	ds := s.reg.Get(q.Dataset)
	if ds == nil {
		return appErr(fmt.Errorf("unknown dataset %q", q.Dataset)), nil
	}
	opt := r2t.Options{
		Epsilon:     q.Epsilon,
		GSQ:         q.GSQ,
		Beta:        q.Beta,
		Primary:     q.Primary,
		Mechanism:   mech.MechR2T,
		EarlyStop:   true,
		ExecWorkers: s.execWorkers,
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	qp, err := ds.DB.Partials(ctx, q.SQL, opt)
	if err != nil {
		return appErr(err), nil
	}
	s.metrics.subQueryServed()
	return shard.EncodeReply(shard.Reply{Units: qp.Units}), nil
}
