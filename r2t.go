// Package r2t is a differentially private SQL query engine implementing R2T
// — "Race-to-the-Top", the instance-optimal truncation mechanism for SPJA
// queries over databases with foreign-key constraints (Dong, Fang, Yi, Tao,
// Machanavajjhala, SIGMOD 2022).
//
// A DB wraps a schema with PK/FK constraints and an in-memory instance.
// Query evaluates one SPJA query (COUNT(*), COUNT(DISTINCT ...) or SUM(...)
// over selections and joins, including self-joins) under ε-differential
// privacy with respect to a designated set of primary private relations:
// neighboring databases differ in one tuple of a primary private relation
// plus everything that references it, the FK-aware policy of the paper.
//
//	db := r2t.NewDB(schema)
//	db.Insert("Node", r2t.Int(1))
//	...
//	ans, err := db.Query(`SELECT COUNT(*) FROM Edge WHERE src < dst`, r2t.Options{
//		Epsilon: 0.8,
//		GSQ:     1024,
//		Primary: []string{"Node"},
//	})
//
// The released Answer.Estimate is ε-DP. Everything else in Answer
// (TrueAnswer, sensitivities, per-race diagnostics) is computed from the
// private data without noise and is exposed for experiments and debugging
// only — do not release those fields.
package r2t

import (
	"context"
	"fmt"
	"io"
	"time"

	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/mech"
	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// Re-exported building blocks, so the public API is self-contained.
type (
	// Schema is a validated relational schema with PK/FK constraints.
	Schema = schema.Schema
	// Relation declares one relation of a schema.
	Relation = schema.Relation
	// FK declares a foreign-key constraint (Attr references Ref's PK).
	FK = schema.FK
	// Instance is an in-memory database instance.
	Instance = storage.Instance
	// Row is one tuple.
	Row = storage.Row
	// Value is a dynamically typed scalar (int, float, string, null).
	Value = value.V
	// NoiseSource draws the Laplace noise a mechanism adds.
	NoiseSource = dp.NoiseSource
)

// NewSchema validates and returns a schema.
func NewSchema(rels ...*Relation) (*Schema, error) { return schema.New(rels...) }

// MustSchema is NewSchema but panics on error.
func MustSchema(rels ...*Relation) *Schema { return schema.MustNew(rels...) }

// Int, Float and Str build values for Insert.
func Int(i int64) Value     { return value.IntV(i) }
func Float(f float64) Value { return value.FloatV(f) }
func Str(s string) Value    { return value.StringV(s) }

// NewNoiseSource returns a deterministic seeded noise source, for
// reproducible experiments. Production deployments should supply their own
// cryptographically secure NoiseSource.
func NewNoiseSource(seed int64) NoiseSource { return dp.NewSource(seed) }

// DB couples a schema with an instance.
type DB struct {
	schema   *Schema
	instance *Instance

	// cores shares join probe passes across queries whose FROM/WHERE
	// structure matches (nil = sharing off). Sharing is invisible in every
	// released value: a core is version-checked against the tables, each
	// request still runs its own truncation/LP/noise with its own ε, and
	// DESIGN.md §12 argues why the pre-noise core never needs budget.
	cores *exec.CoreCache
}

// DefaultJoinShareCap bounds the DB's join-core cache: the number of
// distinct join structures whose probe results are retained for sharing.
// Cores hold materialized join output, so the cap is deliberately modest;
// raise it with SetJoinShareCap for workloads with many hot join shapes.
const DefaultJoinShareCap = 32

// NewDB creates an empty database over s.
func NewDB(s *Schema) *DB {
	return &DB{schema: s, instance: storage.NewInstance(s), cores: exec.NewCoreCache(DefaultJoinShareCap)}
}

// NewDBWithInstance wraps an existing instance (e.g. from a generator).
func NewDBWithInstance(inst *Instance) *DB {
	return &DB{schema: inst.Schema, instance: inst, cores: exec.NewCoreCache(DefaultJoinShareCap)}
}

// JoinShareStats reports the join-core cache's traffic (see
// exec.CoreCacheStats). Hits and Coalesced are probe passes skipped.
type JoinShareStats = exec.CoreCacheStats

// JoinShareStats returns the DB's join-core cache counters (zero when
// sharing is disabled).
func (db *DB) JoinShareStats() JoinShareStats { return db.cores.Stats() }

// SetJoinShareCap replaces the join-core cache with one bounded to n cores
// (n ≤ 0 disables sharing entirely). Call it at setup time, before the DB
// serves queries: the swap is not synchronized with in-flight evaluations —
// they finish against the cache they started with, but their cores are then
// unreachable through the new one.
func (db *DB) SetJoinShareCap(n int) {
	if n <= 0 {
		db.cores = nil
		return
	}
	db.cores = exec.NewCoreCache(n)
}

// Schema returns the database schema.
func (db *DB) Schema() *Schema { return db.schema }

// Instance returns the underlying instance (private data — handle with care).
func (db *DB) Instance() *Instance { return db.instance }

// Insert appends one tuple to the named relation.
func (db *DB) Insert(relation string, vals ...Value) error {
	return db.instance.Insert(relation, Row(vals))
}

// LoadCSV loads a relation from a CSV file with a header row.
func (db *DB) LoadCSV(relation, path string) error {
	return db.instance.ReadCSVFile(relation, path)
}

// CheckIntegrity verifies PK uniqueness and FK referential integrity.
func (db *DB) CheckIntegrity() error { return db.instance.CheckIntegrity() }

// Race mirrors core.Race: diagnostics for one truncation level.
type Race = core.Race

// Profile is a per-stage breakdown of one evaluation (Options.Profile): wall
// time per pipeline stage plus work counters. Like every Answer diagnostic,
// it is data-dependent and non-private — never release it.
type Profile = obs.Profile

// StageTiming is one stage's share of a Profile.
type StageTiming = obs.StageTiming

// Answer is the outcome of one private query evaluation. Only Estimate is
// ε-DP; the remaining fields are non-private diagnostics.
type Answer struct {
	// Estimate is the released, ε-differentially-private query answer.
	Estimate float64

	// Non-private diagnostics (do not release):

	// Degraded reports that at least one race was skipped after a solver
	// failure (Options.Degrade). Whether a solve fails can depend on the
	// private data, so this flag — like every diagnostic below — must never
	// be published alongside the estimate (DESIGN.md §9d).
	Degraded bool

	TrueAnswer float64 // exact query answer Q(I)
	// TauStar is DS_Q(I) for SJA and IS_Q(I) for SPJA — the error scale. For
	// a signed split (AllowNegativeSum) it is the max over the two halves.
	TauStar float64
	// WinnerTau is the τ of the winning race; for a signed split, of the
	// positive half. WinnerTauNeg is the negative half's winner (0 unless
	// AllowNegativeSum split the query). Each Race carries a Half tag
	// ("+"/"-") identifying which half it belongs to.
	WinnerTau    float64
	WinnerTauNeg float64
	Races        []Race // per-τ diagnostics
	NumResults   int    // join results |J(I)|
	Individuals  int    // referenced primary-private tuples
	// Duration is the end-to-end wall time of the evaluation, from parse to
	// release (per group for group-by queries, where parse/plan/exec are
	// shared and the R2T portion is the group's own).
	Duration time.Duration
	// Profile is the per-stage breakdown, set only with Options.Profile.
	Profile *Profile

	// Mechanism is the backend that produced Estimate ("r2t", "laplace",
	// "fixed-tau", "ls"). MechReason explains the selection and MechBound is
	// the mechanism's a-priori (1−β) error bound; both are functions of the
	// query structure and public parameters only (never the data), so unlike
	// the diagnostics above they are safe to show anywhere.
	Mechanism  string
	MechReason string
	MechBound  float64
}

// ExportReport evaluates the rewritten reporting query (Section 9) and
// writes its occurrence form — ψ(q_k) plus the referencing individuals per
// join result — to w, the file handoff of the paper's Figure 3 pipeline.
//
// The output is RAW PRIVATE DATA (it is the input to the DP mechanism, not
// its output); treat the file with the same care as the database itself.
func (db *DB) ExportReport(sqlText string, primary []string, w io.Writer) error {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return err
	}
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: primary})
	if err != nil {
		return err
	}
	res, err := exec.Run(p, db.instance)
	if err != nil {
		return err
	}
	return truncation.WriteOccurrences(w, truncation.FromResult(res))
}

// Query runs one SPJA query under ε-DP with the R2T mechanism.
func (db *DB) Query(sqlText string, opt Options) (*Answer, error) {
	return db.QueryContext(context.Background(), sqlText, opt)
}

// QueryContext is Query with cancellation: if ctx is cancelled or its
// deadline expires, the evaluation stops between pipeline stages and between
// R2T races and ctx.Err() is returned.
//
// Budget semantics for callers that charge ε up front (QueryWithBudget, the
// r2td server): a cancelled run must still be treated as charged. Noise for
// every race is drawn before the races run, so a partial run has already
// consumed its randomness; refunding ε for cancelled queries would let an
// adversary rerun the mechanism for free by racing deadlines.
func (db *DB) QueryContext(ctx context.Context, sqlText string, opt Options) (*Answer, error) {
	start := time.Now()
	if err := opt.Validate(); err != nil {
		return nil, err
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
	ans, err := db.run(ctx, parsed, opt, rec)
	if err != nil {
		return nil, err
	}
	ans.Duration = time.Since(start)
	ans.Profile = rec.Snapshot()
	return ans, nil
}

// execConfig maps the public executor knob onto the exec package.
func execConfig(opt Options, rec *obs.Recorder) exec.Config {
	return exec.Config{Workers: opt.ExecWorkers, Recorder: rec}
}

// coreFor obtains the query's join core, sharing a cached or in-flight probe
// pass when sharing is on (and counting the outcome into rec). The core is
// identical to what a dedicated exec run would have produced, so every path
// through it stays bit-compatible with the unshared engine.
func (db *DB) coreFor(ctx context.Context, p *plan.Plan, opt Options, rec *obs.Recorder) (*exec.Core, error) {
	if db.cores == nil || opt.DisableJoinShare {
		rec.Add(obs.CtrJoinCoreMiss, 1)
		return exec.RunCore(p, db.instance, execConfig(opt, rec))
	}
	c, hit, err := db.cores.Get(ctx, p, db.instance, execConfig(opt, rec))
	if err != nil {
		return nil, err
	}
	if hit {
		rec.Add(obs.CtrJoinCoreHit, 1)
	} else {
		rec.Add(obs.CtrJoinCoreMiss, 1)
	}
	return c, nil
}

func (db *DB) run(ctx context.Context, parsed *sql.Query, opt Options, rec *obs.Recorder) (*Answer, error) {
	priv := schema.PrivateSpec{Primary: opt.Primary}
	stopPlan := rec.Time(obs.StagePlan)
	p, err := plan.Build(parsed, db.schema, priv)
	stopPlan()
	if err != nil {
		return nil, err
	}
	choice, err := chooseFor(p, opt, false)
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
	units, err := coreUnits(c, p, opt, rec)
	if err != nil {
		return nil, err
	}
	return release(ctx, units, opt, rec, choice)
}

// signedSplit reports whether opt splits the query into non-negative halves
// (Q = Q⁺ − Q⁻, Options.AllowNegativeSum).
func signedSplit(p *plan.Plan, opt Options) bool {
	return opt.AllowNegativeSum && p.Agg == sql.AggSum
}

// coreUnits evaluates a query's release units off its join core: the result
// itself, or the positive and negative halves of a signed split.
func coreUnits(c *exec.Core, p *plan.Plan, opt Options, rec *obs.Recorder) ([]releaseUnit, error) {
	if signedSplit(p, opt) {
		pos, neg, err := c.SplitResult(p, rec)
		if err != nil {
			return nil, err
		}
		return resultUnits(opt, rec, pos, neg), nil
	}
	res, err := c.Result(p, rec)
	if err != nil {
		return nil, err
	}
	return resultUnits(opt, rec, res), nil
}

// chooseFor resolves Options.Mechanism against the query's structure: a pure
// function of the plan shape and the public parameters, so the decision is
// identical on neighboring datasets (DESIGN.md §15). It runs before any
// evaluation — and, in budget-charging callers, before any ε charge — so an
// inapplicable explicit mechanism can never burn budget.
func chooseFor(p *plan.Plan, opt Options, groupBy bool) (*mech.Choice, error) {
	return mech.Choose(mech.Shape{
		SelfJoin:   p.SelfJoin(),
		Projection: len(p.ProjVars) > 0,
		SignedSum:  signedSplit(p, opt),
		GroupBy:    groupBy,
	}, mech.Config{
		Mechanism:   opt.Mechanism,
		Epsilon:     opt.Epsilon,
		GSQ:         opt.GSQ,
		Beta:        opt.Beta,
		FixedTau:    opt.FixedTau,
		ErrorTarget: opt.ErrorTarget,
	})
}

// newTruncator builds the query's truncation operator, timed as the
// truncation-build stage and wired to the recorder for solver counters. With
// naive=false it builds the LP operator — or, when the capacity rows
// partition the variables and Options.DisableFastPath is off, the closed-form
// partition truncator, which is bit-identical to the LP on every value.
func newTruncator(res *exec.Result, naive bool, opt Options, rec *obs.Recorder) (truncation.Truncator, error) {
	stopBuild := rec.Time(obs.StageTruncationBuild)
	defer stopBuild()
	if naive {
		nt, err := truncation.NewNaive(res)
		if err != nil {
			return nil, fmt.Errorf("r2t: naive truncation requested but not applicable: %w", err)
		}
		return nt, nil
	}
	occ := truncation.FromResult(res)
	if !opt.DisableFastPath {
		if pt := truncation.NewPartitionFromOccurrences(occ); pt != nil {
			pt.SetRecorder(rec)
			rec.Add(obs.CtrPartitionFastPath, 1)
			return pt, nil
		}
	}
	lt := truncation.NewLPFromOccurrences(occ)
	lt.SetRecorder(rec)
	return lt, nil
}

// releaseUnit is what one backend run consumes: a builder for the truncation
// operator, plus the non-private diagnostics the Answer reports for it.
type releaseUnit struct {
	truncator         func(mech.TruncatorKind) (truncation.Truncator, error)
	answer, tauStar   float64
	rows, individuals int
}

// resultUnits wraps locally evaluated results as release units. Each
// operator is built only when the backend runs, and only of the kind it
// needs (Laplace needs none).
func resultUnits(opt Options, rec *obs.Recorder, results ...*exec.Result) []releaseUnit {
	units := make([]releaseUnit, len(results))
	for i, res := range results {
		units[i] = releaseUnit{
			truncator: func(kind mech.TruncatorKind) (truncation.Truncator, error) {
				if kind == mech.TruncNone {
					return nil, nil
				}
				return newTruncator(res, kind == mech.TruncNaive || opt.Naive, opt, rec)
			},
			answer:      res.TrueAnswer(),
			tauStar:     res.MaxTupleSensitivity(),
			rows:        len(res.Rows),
			individuals: res.NumIndividuals(),
		}
	}
	return units
}

// taggedRaces copies races with their Half tag set, so a signed split's
// concatenated diagnostics stay attributable to the half they came from.
func taggedRaces(dst []Race, races []Race, half string) []Race {
	for _, r := range races {
		r.Half = half
		dst = append(dst, r)
	}
	return dst
}

// release is the engine's one release procedure, shared by local and sharded
// queries: it runs choice's backend over one unit, or over the two halves of
// a signed split (Q = Q⁺ − Q⁻) at ε/2 each — positive first, off one noise
// source — and releases the difference, ε-DP by basic composition and
// post-processing. Only r2t composes over the split; the chooser enforces
// this structurally. For a split, WinnerTau/WinnerTauNeg are the per-half
// winners, Races carries every race tagged with its half, and TauStar is the
// max over the two halves.
func release(ctx context.Context, units []releaseUnit, opt Options, rec *obs.Recorder, choice *mech.Choice) (*Answer, error) {
	be, ok := mech.ByName(choice.Mech)
	if !ok {
		return nil, fmt.Errorf("r2t: no backend implements mechanism %q", choice.Mech)
	}
	noise := opt.Noise
	if noise == nil {
		// core.Run defaults its own source the same way; doing it here covers
		// the backends that draw noise without going through core.Run.
		noise = dp.NewSource(dp.CryptoSeed())
	}
	outs := make([]*mech.Result, len(units))
	for i, u := range units {
		tr, err := u.truncator(be.Truncator())
		if err != nil {
			return nil, err
		}
		outs[i], err = be.Run(tr, mech.Params{
			Epsilon:   opt.Epsilon / float64(len(units)),
			GSQ:       opt.GSQ,
			Beta:      opt.Beta,
			Noise:     noise,
			Rec:       rec,
			Answer:    u.answer,
			FixedTau:  opt.FixedTau,
			EarlyStop: opt.EarlyStop,
			Workers:   opt.Workers,
			Interrupt: ctx.Done(),
			Degrade:   opt.Degrade,
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}
	pos, out := units[0], outs[0]
	ans := &Answer{
		Estimate:    out.Estimate,
		Degraded:    out.Degraded,
		TrueAnswer:  pos.answer,
		TauStar:     pos.tauStar,
		WinnerTau:   out.WinnerTau,
		Races:       out.Races,
		NumResults:  pos.rows,
		Individuals: pos.individuals,
		Duration:    out.Duration,
		Mechanism:   choice.Mech,
		MechReason:  choice.Reason,
		MechBound:   choice.ErrorBound,
	}
	if len(units) == 2 {
		neg, outNeg := units[1], outs[1]
		ans.Estimate -= outNeg.Estimate
		ans.Degraded = ans.Degraded || outNeg.Degraded
		ans.TrueAnswer -= neg.answer
		if neg.tauStar > ans.TauStar {
			ans.TauStar = neg.tauStar
		}
		ans.WinnerTauNeg = outNeg.WinnerTau
		ans.Races = taggedRaces(make([]Race, 0, len(out.Races)+len(outNeg.Races)), out.Races, "+")
		ans.Races = taggedRaces(ans.Races, outNeg.Races, "-")
		ans.NumResults += neg.rows
		ans.Individuals += neg.individuals
		ans.Duration += outNeg.Duration
	}
	return ans, nil
}

// ErrorBound returns the Theorem 5.1 utility bound for the given options and
// τ* value: with probability ≥ 1−β the estimate is within this distance
// below the true answer (and never meaningfully above it).
func ErrorBound(opt Options, tauStar float64) float64 {
	return core.ErrorBound(core.Config{Epsilon: opt.Epsilon, Beta: opt.Beta, GSQ: opt.GSQ}, tauStar)
}
