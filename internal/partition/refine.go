package partition

import (
	"context"
	"errors"
	"fmt"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
)

// This file is the warm-start entry point of the search engine, built
// for the multilevel coarsen–partition–refine flow (internal/multilevel):
// instead of deriving candidate parts by clustering and covering, the
// caller supplies an explicit part list, its activation table and an
// initial grouping (typically the projection of a coarser level's
// solution), and the engine runs the solve path's descent (descend),
// incumbent and Result builder from that state, once, with transfer
// moves off above refineTransferCap parts. What differs is the scan's
// shard count: states large enough to be worth it (parWorthwhile) split
// into refineShards shards over Options.Workers (see scan.go); group
// masks keep move legality cheap even when a level carries thousands of
// parts. While no visited state fits the budget, the least-violating
// one is kept as the fallback grouping.

// WarmStart describes a refinement problem: candidate parts with their
// per-configuration activations, plus an initial assignment of every
// part to a region group or to static logic.
type WarmStart struct {
	// Parts is the candidate part list; Resources must be each part's
	// raw resource requirement.
	Parts []basepart.BasePartition
	// Active[ci][pi] reports whether configuration ci activates part pi.
	Active [][]bool
	// Groups assigns parts (by index) to initial regions. Each group
	// must be non-empty and internally compatible: no configuration may
	// activate two parts of the same group.
	Groups [][]int
	// Static lists parts that start in static logic.
	Static []int
}

// RefineOutcome is the result of a RefineContext run.
type RefineOutcome struct {
	// Result is the best feasible scheme found, or nil when no visited
	// state fit the budget (the caller decides whether that is an error;
	// the multilevel chain keeps descending on the fallback grouping).
	Result *Result
	// Groups and Static describe the grouping of the returned state: the
	// best feasible state when Result is non-nil, otherwise the visited
	// state with the smallest budget violation (ties broken by cost,
	// then area) so an infeasible level still hands the next level its
	// least-broken starting point.
	Groups [][]int
	Static []int
	// Feasible reports whether Groups/Static describe a feasible state.
	Feasible bool
	// States is the number of search states evaluated.
	States int
}

// refineTransferCap bounds the part count up to which the refine
// descent enumerates single-part transfer moves. Transfers are the
// strongest refinement family but their enumeration is O(parts ×
// groups) per iteration; above the cap a level falls back to merges and
// static promotions, which stay near-linear. Coarser levels (where
// moves matter most) are always under the cap.
const refineTransferCap = 2048

// RefineContext improves a caller-supplied grouping of caller-supplied
// candidate parts by greedy descent, using the same incremental move
// evaluation as SolveContext. Unlike SolveContext it explores exactly
// one candidate set (the supplied one), starts from the supplied
// grouping rather than all-singletons, and never restarts — the warm
// start is assumed to be near a good basin. While the start state is
// over budget the descent first repairs feasibility (lowest cost
// increase per unit of violation removed), then improves cost.
//
// PinnedStatic is rejected: pins select parts by mode containment,
// which conflicts with the caller owning the part-to-region assignment.
func RefineContext(ctx context.Context, d *design.Design, ws WarmStart, opts Options) (*RefineOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("partition: invalid design: %w", err)
	}
	if len(opts.PinnedStatic) > 0 {
		return nil, errors.New("partition: Refine does not support PinnedStatic")
	}
	if w := opts.TransitionWeights; w != nil {
		if err := checkWeights(w, len(d.Configurations)); err != nil {
			return nil, err
		}
	}
	if len(ws.Parts) == 0 {
		return nil, errors.New("partition: Refine needs at least one candidate part")
	}
	if len(ws.Active) != len(d.Configurations) {
		return nil, fmt.Errorf("partition: warm start has %d activation rows for %d configurations", len(ws.Active), len(d.Configurations))
	}
	for ci, row := range ws.Active {
		if len(row) != len(ws.Parts) {
			return nil, fmt.Errorf("partition: activation row %d has %d entries for %d parts", ci, len(row), len(ws.Parts))
		}
	}
	placed := make([]bool, len(ws.Parts))
	place := func(pi int) error {
		if pi < 0 || pi >= len(ws.Parts) {
			return fmt.Errorf("partition: warm start references part %d of %d", pi, len(ws.Parts))
		}
		if placed[pi] {
			return fmt.Errorf("partition: warm start places part %d twice", pi)
		}
		placed[pi] = true
		return nil
	}
	for gi, g := range ws.Groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("partition: warm-start group %d is empty", gi)
		}
		for _, pi := range g {
			if err := place(pi); err != nil {
				return nil, err
			}
		}
	}
	for _, pi := range ws.Static {
		if err := place(pi); err != nil {
			return nil, err
		}
	}
	for pi, ok := range placed {
		if !ok {
			return nil, fmt.Errorf("partition: warm start leaves part %d unplaced", pi)
		}
	}

	stop := opts.Obs.Timer("partition.phase.refine").Time()
	defer stop()

	m := connmat.New(d)
	cs := &cover.CandidateSet{Parts: ws.Parts, Active: ws.Active}
	s := newSearcher(d, m, cs, opts, getScratch())
	s.ctx = ctx
	s.transfers = len(ws.Parts) <= refineTransferCap
	// Shard large scan iterations over Options.Workers. The shard
	// decomposition is Workers-independent, so any worker count —
	// including the serial default — produces byte-identical schemes
	// and identical obs counters; see scan.go.
	s.scan.maxShards = refineShards
	s.scan.workers = EffectiveRefineWorkers(opts.Workers)
	// The searcher's and the shards' scratches go back to scratchPool
	// once their tallies are flushed.
	defer func() {
		s.flushCounts()
		s.scan.close()
		s.scan.release()
		putScratch(s.sc)
	}()

	// Group-internal compatibility: since a group's mask is the union of
	// its parts' masks, the group is internally compatible iff its mask
	// popcount equals the sum of its parts' activation counts (any
	// overlap double-counts a configuration).
	st := &state{}
	for gi, g := range ws.Groups {
		grp := s.newGroup(g...)
		if grp.mask.Count() != grp.active {
			return nil, fmt.Errorf("partition: warm-start group %d is not internally compatible", gi)
		}
		st.groups = append(st.groups, grp)
	}
	for _, pi := range ws.Static {
		st.static = append(st.static, pi)
		st.staticRes = st.staticRes.Add(s.partRes[pi])
	}
	st.cost = st.totalCost()
	st.area = st.totalArea()

	in := incumbent{s: s}
	// fallback tracks the least-violating visited state so an infeasible
	// level still returns a grouping for the chain to keep refining:
	// while the incumbent is empty, every recorded state is infeasible.
	var fallback *snapshot
	var fallbackViol int64
	record := func(vs *state) {
		in.record(vs)
		if in.best != nil {
			return
		}
		v := s.violation(vs.area)
		if fallback == nil || v < fallbackViol ||
			(v == fallbackViol && (vs.cost < fallback.cost ||
				(vs.cost == fallback.cost && vs.area.Total() < fallback.area.Total()))) {
			fallback = s.snap(vs)
			fallbackViol = v
		}
	}
	record(st)
	s.descend(st, record)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: refine cancelled: %w", err)
	}

	best := in.best
	chosen := best
	if chosen == nil {
		chosen = fallback
	}
	out := &RefineOutcome{States: in.states, Feasible: best != nil}
	out.Groups = make([][]int, len(chosen.st.groups))
	for i, g := range chosen.st.groups {
		out.Groups[i] = append([]int(nil), g.parts...)
	}
	out.Static = append([]int(nil), chosen.st.static...)
	if best == nil {
		return out, nil
	}
	res, err := best.result(1, in.states)
	if err != nil {
		return nil, err
	}
	out.Result = res
	return out, nil
}
