package r2t

import (
	"context"
	"fmt"
	"time"

	"r2t/internal/mech"
	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
)

// BatchQuery is one query of a QueryBatch: its SQL text and its own full
// Options — every item keeps its own ε, GSQ, β, noise source and primary
// designation, exactly as if issued alone.
type BatchQuery struct {
	SQL string
	Opt Options
}

// QueryBatch evaluates many queries, running each distinct join structure's
// probe pass once: items whose FROM/WHERE lower to the same join signature
// share one join core, and each item then builds its own aggregate view and
// runs its own truncation/LP/noise release. Every answer is bit-identical
// to db.Query of the same item (same seeded noise, same LP answers); only
// the redundant joins are gone. Budget accounting is unchanged — N items
// are N releases, each paying its own ε.
//
// The whole batch is validated, parsed and planned before anything is
// evaluated, so an invalid item fails the batch without any partial
// evaluation. Any later error also fails the whole batch, wrapped with the
// item's index.
func (db *DB) QueryBatch(ctx context.Context, batch []BatchQuery) ([]*Answer, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("r2t: empty batch")
	}
	type item struct {
		p      *plan.Plan
		rec    *obs.Recorder
		choice *mech.Choice
	}
	items := make([]item, len(batch))
	for i, bq := range batch {
		if err := bq.Opt.Validate(); err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
		}
		var rec *obs.Recorder
		if bq.Opt.Profile {
			rec = obs.NewRecorder()
		}
		stopParse := rec.Time(obs.StageParse)
		parsed, err := sql.Parse(bq.SQL)
		stopParse()
		if err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
		}
		stopPlan := rec.Time(obs.StagePlan)
		p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: bq.Opt.Primary})
		stopPlan()
		if err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
		}
		choice, err := chooseFor(p, bq.Opt, false)
		if err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
		}
		items[i] = item{p: p, rec: rec, choice: choice}
	}

	// Group items by join signature, in first-appearance order.
	groupOf := make(map[string][]int)
	var order []string
	for i := range items {
		sig := items[i].p.JoinSignature()
		if _, seen := groupOf[sig]; !seen {
			order = append(order, sig)
		}
		groupOf[sig] = append(groupOf[sig], i)
	}

	answers := make([]*Answer, len(batch))
	for _, sig := range order {
		members := groupOf[sig]
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", members[0], err)
		}
		// One probe pass per group. The leader item (first member) supplies
		// the executor configuration and receives the probe's profile; with
		// the DB-level cache on, the pass may itself be shared with — or
		// borrowed from — concurrent queries outside this batch.
		lead := members[0]
		core, err := db.coreFor(ctx, items[lead].p, batch[lead].Opt, items[lead].rec)
		if err != nil {
			return nil, fmt.Errorf("r2t: batch item %d: %w", lead, err)
		}
		for _, i := range members {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
			}
			start := time.Now()
			it, opt := items[i], batch[i].Opt
			units, err := coreUnits(core, it.p, opt, it.rec)
			if err != nil {
				return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
			}
			ans, err := release(ctx, units, opt, it.rec, it.choice)
			if err != nil {
				return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
			}
			ans.Duration = time.Since(start)
			ans.Profile = it.rec.Snapshot()
			answers[i] = ans
		}
	}
	return answers, nil
}
