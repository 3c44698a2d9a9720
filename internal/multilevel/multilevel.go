// Package multilevel scales the paper's partitioning flow to designs
// with thousands of modes by the classic multilevel recipe (mt-KaHyPar
// style): model the connectivity matrix as a hypergraph (configurations
// are hyperedges over modes), coarsen it by seeded heavy-edge matching
// under per-resource imbalance caps, solve the coarsest instance with
// the standard engine (internal/partition), then walk back down the
// ladder, projecting each level's solution onto the finer level and
// improving it with the engine's incremental warm-start refinement
// (partition.RefineContext, driven by the delta cache of
// partition/delta.go).
//
// The engine is a strict superset in behaviour, not in results: below
// the coarsening threshold it delegates to partition.SolveContext
// verbatim (byte-identical results), and above it — when the instance
// is still small enough for the standard engine to enumerate — it also
// runs the standard search as a "polish" candidate and returns the
// better of the two, so on every instance both engines can solve, the
// multilevel result costs no more than the standard one. The
// differential and property suites in this package enforce both claims,
// and every result passes the solver-independent internal/check oracle.
package multilevel

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/partition"
)

// Defaults for the coarsening targets.
const (
	// DefaultThreshold is the mode count at or below which the engine
	// delegates to the standard search untouched.
	DefaultThreshold = 64
	// DefaultCoarseNodes is the node count the coarsening aims for.
	DefaultCoarseNodes = 32
	// DefaultMaxConfigNodes is the largest hyperedge (active nodes per
	// configuration) allowed at the coarsest level; it must stay well
	// under basepart.MaxConfigModes so the coarse instance is cheap for
	// the standard engine's 2^k candidate enumeration.
	DefaultMaxConfigNodes = 8

	// polishModeCap bounds the instance size at which the polish pass
	// (running the standard engine alongside the chain) is attempted.
	polishModeCap = 256
)

// Errors for the engine's documented restrictions.
var (
	// ErrWeights: configuration deduplication at coarse levels has no
	// faithful mapping for per-pair transition weights.
	ErrWeights = errors.New("multilevel: TransitionWeights is not supported; use the standard engine")
	// ErrPinned: pins select parts by mode containment, which the
	// projection between levels does not preserve.
	ErrPinned = errors.New("multilevel: PinnedStatic is not supported; use the standard engine")
)

// Options tunes the multilevel engine. The zero value (plus a Budget in
// Partition) runs with the defaults above.
type Options struct {
	// Partition carries the inner engine's options: budget, ablations,
	// workers, observability. TransitionWeights and PinnedStatic are
	// rejected (ErrWeights, ErrPinned).
	Partition partition.Options
	// Seed drives the heavy-edge matching tie-breaks. Results are
	// deterministic per seed.
	Seed int64
	// Threshold is the mode count at or below which the engine
	// delegates to the standard search (0 = DefaultThreshold).
	Threshold int
	// CoarseNodes is the coarsening node-count target (0 = default).
	CoarseNodes int
	// MaxConfigNodes is the largest allowed coarse hyperedge (0 = default).
	MaxConfigNodes int
	// NoPolish disables the standard-engine polish pass on enumerable
	// instances, exposing the pure coarsen–solve–refine chain (used by
	// the property suite; production callers leave it off).
	NoPolish bool
}

func (o Options) threshold() int {
	if o.Threshold <= 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

func (o Options) coarseNodes() int {
	if o.CoarseNodes <= 0 {
		return DefaultCoarseNodes
	}
	return o.CoarseNodes
}

func (o Options) maxConfigNodes() int {
	if o.MaxConfigNodes <= 0 {
		return DefaultMaxConfigNodes
	}
	return o.MaxConfigNodes
}

// Stats describes what the multilevel run did.
type Stats struct {
	// Delegated reports the instance was at or below Threshold and went
	// to the standard engine untouched.
	Delegated bool
	// Levels is the number of coarsening levels built (0 when
	// delegated); Nodes is the node count per level, finest first.
	Levels int
	Nodes  []int
	// Matches is the total number of contracted node pairs.
	Matches int
	// CoarseSolved reports the coarsest instance solved with the
	// standard engine; false means refinement started from singletons.
	CoarseSolved bool
	// RefineStates is the total number of states the refinement
	// descents evaluated across all levels.
	RefineStates int
	// PolishRan / PolishWon report the standard-engine polish pass.
	PolishRan, PolishWon bool
	// ChainTotal is the chain result's total cost in frames (-1 when
	// the chain found no feasible scheme).
	ChainTotal int
}

// Result is a multilevel solve outcome.
type Result struct {
	// Partition is the winning scheme, in the standard engine's result
	// shape (so every downstream consumer — check, report, serve — is
	// oblivious to which engine produced it).
	Partition *partition.Result
	// Stats describes the run.
	Stats Stats
}

// Solve runs the multilevel engine. See SolveContext.
func Solve(d *design.Design, o Options) (*Result, error) {
	return SolveContext(context.Background(), d, o)
}

// SolveContext runs the multilevel engine with cancellation: the
// context is threaded into every inner solve and refinement, checked
// between phases, and a cancelled run returns the context error rather
// than a partial result.
func SolveContext(ctx context.Context, d *design.Design, o Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Partition.TransitionWeights != nil {
		return nil, ErrWeights
	}
	if len(o.Partition.PinnedStatic) > 0 {
		return nil, ErrPinned
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("multilevel: invalid design: %w", err)
	}
	ob := o.Partition.Obs
	m := connmat.New(d)

	if m.NumModes() <= o.threshold() {
		ob.Counter("multilevel.delegated").Inc()
		pres, err := partition.SolveContext(ctx, d, o.Partition)
		if err != nil {
			return nil, err
		}
		return &Result{Partition: pres, Stats: Stats{Delegated: true, ChainTotal: -1}}, nil
	}

	if !partition.SingleRegion(d).FitsIn(o.Partition.Budget) {
		return nil, partition.ErrInfeasible
	}

	// Coarsen.
	stopCoarsen := ob.Timer("multilevel.phase.coarsen").Time()
	levels := coarsen(d, m, o.Partition.Budget, o.Seed, o.coarseNodes(), o.maxConfigNodes())
	stopCoarsen()
	st := Stats{Levels: len(levels), ChainTotal: -1}
	matches := 0
	for _, lv := range levels {
		st.Nodes = append(st.Nodes, len(lv.nodes))
	}
	for i := 1; i < len(levels); i++ {
		matches += len(levels[i-1].nodes) - len(levels[i].nodes)
	}
	st.Matches = matches
	ob.Counter("multilevel.levels").Add(int64(len(levels)))
	ob.Counter("multilevel.matches").Add(int64(matches))
	ob.Gauge("multilevel.coarse_nodes").Observe(int64(len(levels[len(levels)-1].nodes)))
	ob.Emit("multilevel", "coarsen.done",
		slog.String("design", d.Name), slog.Int("levels", len(levels)),
		slog.Int("coarse_nodes", len(levels[len(levels)-1].nodes)))

	// Solve the coarsest instance with the standard engine. Failure is
	// not fatal: refinement can still start from singletons and repair
	// feasibility on the way down.
	top := levels[len(levels)-1]
	g := singletons(len(top.nodes))
	stopSolve := ob.Timer("multilevel.phase.coarse_solve").Time()
	cd, err := coarseDesign(d, top)
	if err == nil {
		var cres *partition.Result
		cres, err = partition.SolveContext(ctx, cd, o.Partition)
		if err == nil {
			g = schemeGrouping(cres.Scheme, top)
			st.CoarseSolved = true
		}
	}
	stopSolve()
	if err != nil && ctx.Err() != nil {
		return nil, err
	}

	// Uncoarsen: refine at every level, projecting downward. Each
	// level's refinement inherits the partition worker count: its move
	// scan shards across up to that many workers (coarse levels with
	// few regions scan as one shard below the sharding threshold — see
	// partition/scan.go). The gauge records
	// the resolved count; per-level timers attribute the wall-clock win
	// per level in prbench traces.
	stopRefine := ob.Timer("multilevel.phase.refine").Time()
	ob.Gauge("multilevel.refine.workers").Observe(int64(partition.EffectiveRefineWorkers(o.Partition.Workers)))
	var chain *partition.Result
	for l := len(levels) - 1; l >= 0; l-- {
		if err := ctx.Err(); err != nil {
			stopRefine()
			return nil, fmt.Errorf("multilevel: cancelled: %w", err)
		}
		stopLevel := ob.Timer(fmt.Sprintf("multilevel.refine_parallel.level%02d", l)).Time()
		out, err := partition.RefineContext(ctx, d, warmStart(levels[l], g), o.Partition)
		stopLevel()
		if err != nil {
			stopRefine()
			return nil, err
		}
		st.RefineStates += out.States
		g = grouping{groups: out.Groups, static: out.Static}
		if l > 0 {
			g = project(levels[l-1], levels[l], g)
		} else if out.Result != nil {
			chain = out.Result
			st.ChainTotal = out.Result.Summary.Total
		}
	}
	stopRefine()
	ob.Counter("multilevel.refine_states").Add(int64(st.RefineStates))

	// Polish: when the instance is still enumerable by the standard
	// engine, run it too and keep the better scheme — this is what
	// guarantees the multilevel result never costs more than the
	// standard engine's on instances both can solve.
	var polish *partition.Result
	var polishErr error
	if !o.NoPolish && enumerable(d, m) {
		st.PolishRan = true
		ob.Counter("multilevel.polish_runs").Inc()
		stopPolish := ob.Timer("multilevel.phase.polish").Time()
		polish, polishErr = partition.SolveContext(ctx, d, o.Partition)
		stopPolish()
		if polishErr != nil && ctx.Err() != nil {
			return nil, polishErr
		}
	}

	switch {
	case chain == nil && polish == nil:
		if st.PolishRan && polishErr != nil {
			return nil, polishErr
		}
		return nil, partition.ErrNoScheme
	case chain == nil:
		st.PolishWon = true
	case polish != nil && !betterResult(chain, polish):
		// Ties go to the polish result: it is byte-identical to the
		// standard engine's, the stabler anchor.
		st.PolishWon = true
	}
	res := chain
	if st.PolishWon {
		res = polish
	}
	ob.Counter("multilevel.polish_wins").Add(boolToInt(st.PolishWon))
	ob.Emit("multilevel", "solve.done",
		slog.String("design", d.Name), slog.Int("total", res.Summary.Total),
		slog.Int("chain_total", st.ChainTotal))
	return &Result{Partition: res, Stats: st}, nil
}

// enumerable reports whether the standard engine can run on the design
// at all (basepart.BasePartitions' per-configuration 2^k enumeration
// caps actives at MaxConfigModes) and cheaply enough to be worth a
// polish pass.
func enumerable(d *design.Design, m *connmat.Matrix) bool {
	if m.NumModes() > polishModeCap {
		return false
	}
	for ci := range d.Configurations {
		if len(d.ConfigModes(ci)) > basepart.MaxConfigModes {
			return false
		}
	}
	return true
}

// betterResult reports whether a is strictly better than b under the
// engine's result ordering: total cost, then worst transition, then
// fewer regions.
func betterResult(a, b *partition.Result) bool {
	if a.Summary.Total != b.Summary.Total {
		return a.Summary.Total < b.Summary.Total
	}
	if a.Summary.Worst != b.Summary.Worst {
		return a.Summary.Worst < b.Summary.Worst
	}
	return a.Summary.Regions < b.Summary.Regions
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Solver adapts the multilevel engine to the partition-shaped solve
// signature used by the experiments sweep and other engine-agnostic
// callers.
func Solver(o Options) func(d *design.Design, popts partition.Options) (*partition.Result, error) {
	return func(d *design.Design, popts partition.Options) (*partition.Result, error) {
		mo := o
		mo.Partition = popts
		res, err := Solve(d, mo)
		if err != nil {
			return nil, err
		}
		return res.Partition, nil
	}
}
