package r2t

import (
	"context"
	"fmt"

	"r2t/internal/exec"
	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/value"
)

// GroupByAnswer is the result of one group in QueryGroupBy.
type GroupByAnswer struct {
	Group  Value
	Answer *Answer
}

// QueryGroupBy answers a group-by aggregation, implementing the simple
// strategy the paper sketches as future work (Section 11): each group is the
// query with the predicate column = group value appended, and the privacy
// budget is split evenly across groups by basic composition, so the whole
// release is ε-DP.
//
// The join runs ONCE, without the group predicate, and its result rows are
// partitioned by the group column's value. Because that predicate is an
// equality on a join-output column, each partition holds exactly the rows
// the per-group query would produce, in the same order (DESIGN.md §10), so
// every per-group answer — and with a seeded noise source, every released
// value — is identical to running the groups one by one; only the G−1
// redundant joins are gone. The budget split is unchanged.
//
// The group list must be public knowledge (e.g. the domain of a categorical
// attribute such as NATION); deriving it from the private data would leak.
// Duplicate group values are rejected: each duplicate would charge (and
// waste) an extra ε share for a repeated release of the same group. Columns
// are resolved against the query's FROM aliases, so pass the same qualifier
// you would write in SQL ("c.NK" → qualifier "c", attr "NK").
func (db *DB) QueryGroupBy(sqlText string, column string, groups []Value, opt Options) ([]GroupByAnswer, error) {
	return db.QueryGroupByContext(context.Background(), sqlText, column, groups, opt)
}

// QueryGroupByContext is QueryGroupBy with cancellation between (and inside)
// the per-group releases. The same charge semantics as QueryContext apply: a
// cancelled release must be treated as fully charged.
func (db *DB) QueryGroupByContext(ctx context.Context, sqlText string, column string, groups []Value, opt Options) ([]GroupByAnswer, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("r2t: group-by needs at least one group value")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[value.V]int, len(groups))
	for i, g := range groups {
		if j, dup := seen[g.Key()]; dup {
			return nil, fmt.Errorf("r2t: duplicate group value %v (positions %d and %d): each group would be released twice and charged two ε shares", g, j, i)
		}
		seen[g.Key()] = i
	}
	var rec *obs.Recorder
	if opt.Profile {
		rec = obs.NewRecorder()
	}
	stopParse := rec.Time(obs.StageParse)
	parsed, err := sql.Parse(sqlText)
	stopParse()
	if err != nil {
		return nil, err
	}
	colRef, err := parseColumn(column)
	if err != nil {
		return nil, err
	}
	stopPlan := rec.Time(obs.StagePlan)
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: opt.Primary})
	stopPlan()
	if err != nil {
		return nil, err
	}
	groupVar := p.ColVar(colRef)
	if groupVar < 0 {
		return nil, fmt.Errorf("r2t: group-by column %q does not name a join column of the query (unknown or ambiguous)", column)
	}

	perGroup := opt
	perGroup.Epsilon = opt.Epsilon / float64(len(groups))

	signed := signedSplit(p, opt)
	if signed && len(p.ProjVars) > 0 {
		return nil, fmt.Errorf("r2t: signed split does not apply to projection queries")
	}
	// The mechanism decision is made once for the whole release, from the
	// group-by shape (only r2t composes over the per-group split) and the
	// per-group ε — data-independent, identical for every group.
	choice, err := chooseFor(p, perGroup, true)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := db.coreFor(ctx, p, opt, rec)
	if err != nil {
		return nil, err
	}
	parts, err := c.PartitionedResult(p, rec, groupVar, groups, signed)
	if err != nil {
		return nil, err
	}

	out := make([]GroupByAnswer, 0, len(groups))
	for i, g := range groups {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("r2t: group %v: %w", g, err)
		}
		results := []*exec.Result{parts[i]}
		if signed {
			pos, neg := exec.Split(parts[i])
			results = []*exec.Result{pos, neg}
		}
		ans, err := release(ctx, resultUnits(perGroup, rec, results...), perGroup, rec, choice)
		if err != nil {
			return nil, fmt.Errorf("r2t: group %v: %w", g, err)
		}
		out = append(out, GroupByAnswer{Group: g, Answer: ans})
	}
	if prof := rec.Snapshot(); prof != nil {
		// One recorder spans the shared parse/plan/exec work and every group's
		// R2T run, so each group carries the same whole-evaluation profile.
		for i := range out {
			out[i].Answer.Profile = prof
		}
	}
	return out, nil
}

// parseColumn splits "alias.attr" or "attr" into a column reference.
func parseColumn(column string) (sql.ColRef, error) {
	for i := 0; i < len(column); i++ {
		if column[i] == '.' {
			if i == 0 || i == len(column)-1 {
				return sql.ColRef{}, fmt.Errorf("r2t: malformed column %q", column)
			}
			return sql.ColRef{Qualifier: column[:i], Attr: column[i+1:]}, nil
		}
	}
	if column == "" {
		return sql.ColRef{}, fmt.Errorf("r2t: empty group-by column")
	}
	return sql.ColRef{Attr: column}, nil
}
