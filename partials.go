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
	"r2t/internal/truncation"
)

// Partial is one shard's mergeable contribution to a partition-shaped
// truncator (see internal/truncation/partial.go). Each shard computes its
// Partial with Partials; a router releases over all of them with
// ReleasePartials, which merges them into the union operator. In the
// integer-exact regime the released estimate is bit-identical to evaluating
// the unsharded union of rows. Like every non-released intermediate, a
// Partial is raw private data.
type Partial = truncation.Partial

// Partials evaluates a query's mergeable truncation partial WITHOUT charging
// ε or drawing noise: the router owns the ε accounting — it charges once
// before scattering sub-queries and adds noise only to the merged operator.
// Options are validated exactly as for Query — the shard and the router must
// agree on the public parameters — but only the structural fields matter
// here: no mechanism runs. The query must pass mergeablePlan.
func (db *DB) Partials(ctx context.Context, sqlText string, opt Options) (*Partial, error) {
	p, _, err := db.mergeablePlan(sqlText, opt, nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := db.coreFor(ctx, p, opt, nil)
	if err != nil {
		return nil, err
	}
	res, err := c.Result(p, nil)
	if err != nil {
		return nil, err
	}
	return truncation.NewPartial(truncation.FromResult(res))
}

// ReleasePartials is the router's release: it merges the shards' partials of
// sqlText (one per shard, from Partials) into the union operator, timed as
// the truncation-build stage, and runs the same release procedure as Query
// over it. The Answer's mechanism fields come from the same chooser as a
// local query's. Budget semantics are QueryContext's: the caller charges
// opt.Epsilon before it scatters, and the charge stands on any error.
func (db *DB) ReleasePartials(ctx context.Context, sqlText string, parts []*Partial, opt Options) (*Answer, error) {
	start := time.Now()
	var rec *obs.Recorder
	if opt.Profile {
		rec = obs.NewRecorder()
	}
	_, choice, err := db.mergeablePlan(sqlText, opt, rec)
	if err != nil {
		return nil, err
	}
	stopBuild := rec.Time(obs.StageTruncationBuild)
	m, err := truncation.MergePartials(parts)
	stopBuild()
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, part := range parts {
		rows += part.NumResults
	}
	ans, err := release(ctx, []releaseUnit{{
		truncator:   func(mech.TruncatorKind) (truncation.Truncator, error) { return m, nil },
		answer:      m.TrueAnswer(),
		tauStar:     m.TauStar(),
		rows:        rows,
		individuals: m.NumCapacityRows(),
	}}, opt, rec, choice)
	if err != nil {
		return nil, err
	}
	ans.Duration = time.Since(start)
	ans.Profile = rec.Snapshot()
	return ans, nil
}

// mergeablePlan parses, plans and resolves the mechanism of a query whose
// per-shard partials merge: the resolved mechanism is r2t on the LP operator,
// with no signed split and no projection (each join result references at
// most one individual), the structure the partition fast path serves.
func (db *DB) mergeablePlan(sqlText string, opt Options, rec *obs.Recorder) (*plan.Plan, *mech.Choice, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	stopParse := rec.Time(obs.StageParse)
	parsed, err := sql.Parse(sqlText)
	stopParse()
	if err != nil {
		return nil, nil, err
	}
	stopPlan := rec.Time(obs.StagePlan)
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: opt.Primary})
	stopPlan()
	if err != nil {
		return nil, nil, err
	}
	choice, err := chooseFor(p, opt, false)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case choice.Mech != mech.MechR2T:
		return nil, nil, fmt.Errorf("r2t: mechanism %q does not produce mergeable partials (only r2t does)", choice.Mech)
	case opt.Naive || signedSplit(p, opt):
		return nil, nil, fmt.Errorf("r2t: naive truncation and signed splits have no mergeable partials")
	case len(p.ProjVars) > 0:
		return nil, nil, fmt.Errorf("r2t: projection queries have no mergeable partials")
	}
	return p, choice, nil
}

// ShardCheck verifies that a query is safe to evaluate shard-locally on a
// dataset hash-partitioned on relation partition's primary key. partitionCols
// maps each partitioned relation to the column carrying its owner's key (the
// PK for the partition relation itself, the referencing FK attribute for its
// child relations); relations absent from the map are broadcast to every
// shard. The query is shard-safe when
//
//   - exactly one atom of the completed plan is over a primary private
//     relation, and that relation is the partition relation (so every join
//     result references at most one individual — the partition shape — and
//     that individual determines the owning shard), and
//   - every atom over a partitioned relation joins its partition column to
//     the partition relation's primary-key variable (so all rows a join
//     result touches are co-located on the owner's shard), and
//   - the query has no projection (partials do not merge across groups of
//     join results).
//
// Under these conditions the shard-local joins partition the unsharded join
// exactly: summing per-shard partials loses nothing and counts nothing twice.
func (db *DB) ShardCheck(sqlText string, primary []string, partition string, partitionCols map[string]string) error {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return err
	}
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: primary})
	if err != nil {
		return err
	}
	if len(p.ProjVars) > 0 {
		return fmt.Errorf("r2t: projection queries are not shardable")
	}
	pkVar, privAtoms := -1, 0
	for i, a := range p.Atoms {
		if p.PrivPK[i] < 0 {
			continue
		}
		privAtoms++
		if a.Rel.Name != partition {
			return fmt.Errorf("r2t: primary private relation %q is not the partition relation %q", a.Rel.Name, partition)
		}
		pkVar = p.PrivPK[i]
	}
	if privAtoms != 1 {
		return fmt.Errorf("r2t: sharded evaluation requires exactly one atom over the partition relation %q, query has %d", partition, privAtoms)
	}
	for _, a := range p.Atoms {
		col, ok := partitionCols[a.Rel.Name]
		if !ok || a.Rel.Name == partition {
			continue
		}
		idx := a.Rel.AttrIndex(col)
		if idx < 0 {
			return fmt.Errorf("r2t: partition column %s.%s does not exist", a.Rel.Name, col)
		}
		if a.Vars[idx] != pkVar {
			return fmt.Errorf("r2t: atom %s does not join its partition column %s to the partition key of %s — join results would span shards", a.Rel.Name, col, partition)
		}
	}
	return nil
}
