package partition

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"prpart/internal/basepart"
	"prpart/internal/compat"
	"prpart/internal/connmat"
	"prpart/internal/cost"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/obs"
	"prpart/internal/resource"
	"prpart/internal/scheme"
)

// This file is the search engine's entry point: SolveContext clusters
// the design into candidate partition sets and runs one searcher per
// set, in parallel over sets. A searcher (below) runs greedy descents
// from the all-separate and module-grouped starts (state.go); every
// descent step is one pass of the move scan (scan.go) over the current
// state's legal moves, evaluated against the delta cache (delta.go).
// On this path the scan always runs as one shard; RefineContext
// (refine.go) reuses the same searcher and scan from a caller-supplied
// grouping and lets large states shard.

// ErrInfeasible reports that no partitioning of the design fits the
// budget — not even a single region sized for the largest configuration.
var ErrInfeasible = errors.New("partition: design does not fit the budget")

// ErrNoScheme reports that the search found no feasible multi-region
// scheme; the single-region fallback fits, but the paper's flow treats
// this as "re-iterate with a larger FPGA".
var ErrNoScheme = errors.New("partition: no feasible scheme other than a single region")

// Options tunes the search. The zero value (plus a Budget) runs the full
// algorithm with default bounds.
type Options struct {
	// Budget is the total device resources available, including the
	// design's fixed static logic.
	Budget resource.Vector
	// NoStatic disables promotion of base partitions into static logic
	// (ablation A1). The paper's algorithm has it enabled.
	NoStatic bool
	// GreedyOnly restricts the search to a single greedy descent on the
	// first candidate partition set (ablation A2).
	GreedyOnly bool
	// NoQuantize guides the search with idealised, non-tile-quantised
	// frame counts (ablation A3). Final metrics are always quantised.
	NoQuantize bool
	// MaxCandidateSets bounds the outer candidate-set iteration:
	// 0 = default (16), negative = unlimited. The bound limits covering
	// work too, not only search: enumeration stops once it has this many
	// distinct sets (cover.SetsN).
	MaxCandidateSets int
	// MaxFirstMoves bounds the restart breadth per candidate set:
	// 0 = default (32), negative = unlimited.
	MaxFirstMoves int
	// Workers sets the number of candidate partition sets searched
	// concurrently: 0 or 1 = serial, negative = GOMAXPROCS. The result
	// is deterministic regardless of parallelism (per-set bests are
	// reduced in candidate-set order).
	Workers int
	// PinnedStatic lists modes the designer requires in static logic
	// (e.g. a mode that must never incur reconfiguration latency). Every
	// candidate part containing a pinned mode starts — and stays — in the
	// static region. Incompatible with NoStatic.
	PinnedStatic []design.ModeRef
	// CoverDescending reverses the covering order (largest base
	// partitions first) — ablation A5, showing the value of the paper's
	// ascending ordering.
	CoverDescending bool
	// Obs, when non-nil, receives the search's counters, phase timers and
	// trace events (see internal/obs). Instrumentation is passive: it
	// never changes which scheme the search returns, and the nil default
	// costs one predictable branch per touch point.
	Obs *obs.Obs
	// TransitionWeights optionally weights configuration pairs in the
	// search objective — the transition-probability extension the
	// paper's §V closing remarks anticipate. Entry [i][j] scales the
	// cost charged when a region must be reconfigured between
	// configurations i and j. Both directed entries are read and
	// symmetrised: the weight of the unordered pair {i, j} is the mean
	// of w[i][j] and w[j][i], so an asymmetric matrix is averaged, not
	// half-ignored. Nil means uniform weighting, the paper's eq. (7).
	// Final Summary metrics are always uniform so schemes stay
	// comparable; evaluate weighted expectations with cost.Matrix.Weighted.
	TransitionWeights [][]float64
}

const (
	defaultMaxCandidateSets = 16
	defaultMaxFirstMoves    = 32
)

func (o Options) maxSets() int {
	switch {
	case o.MaxCandidateSets == 0:
		return defaultMaxCandidateSets
	case o.MaxCandidateSets < 0:
		return int(^uint(0) >> 1)
	}
	return o.MaxCandidateSets
}

func (o Options) maxFirst() int {
	switch {
	case o.MaxFirstMoves == 0:
		return defaultMaxFirstMoves
	case o.MaxFirstMoves < 0:
		return int(^uint(0) >> 1)
	}
	return o.MaxFirstMoves
}

// Result is the outcome of a successful search.
type Result struct {
	// Scheme is the best feasible scheme found, named "proposed".
	Scheme *scheme.Scheme
	// Summary carries its headline metrics.
	Summary cost.Summary
	// CandidateSets is the number of candidate partition sets explored.
	CandidateSets int
	// States is the number of search states evaluated.
	States int
	// Trace lists the merge/promote moves that produced the best scheme
	// from its candidate set's all-separate start, in order.
	Trace []string
}

// Solve runs the paper's algorithm: build the connectivity matrix,
// cluster into base partitions, iterate candidate partition sets, and for
// each one search region allocations by compatible merging and static
// promotion, keeping the feasible scheme with the lowest total
// reconfiguration time.
//
// With TransitionWeights set, the search is additionally run under the
// uniform objective and the scheme with the lower weighted expectation is
// returned — greedy guidance under a skewed objective can land in a worse
// basin, and the uniform descent is a cheap strong candidate.
func Solve(d *design.Design, opts Options) (*Result, error) {
	return SolveContext(context.Background(), d, opts)
}

// SolveContext is Solve with cancellation: the context is checked at
// candidate-set boundaries, so a cancelled or expired context stops the
// search between set explorations and returns the context's error. A
// run that completes returns exactly what Solve would — cancellation
// never changes a successful result, only whether one is produced.
func SolveContext(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w := opts.TransitionWeights; w != nil {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("partition: invalid design: %w", err)
		}
		if err := checkWeights(w, len(d.Configurations)); err != nil {
			return nil, err
		}
		weighted, werr := solveOnce(ctx, d, opts)
		if werr != nil && ctx.Err() != nil {
			return nil, werr
		}
		plain := opts
		plain.TransitionWeights = nil
		uniform, uerr := solveOnce(ctx, d, plain)
		// A cancelled uniform run must not surface the weighted-only
		// result as success: the uniform candidate may win in a full run,
		// so returning `weighted` here would break the invariant that a
		// successful result never depends on cancellation timing.
		if uerr != nil && ctx.Err() != nil {
			return nil, uerr
		}
		switch {
		case werr != nil && uerr != nil:
			return nil, werr
		case werr != nil:
			return uniform, nil
		case uerr != nil:
			return weighted, nil
		}
		score := func(r *Result) float64 {
			m := cost.Transitions(r.Scheme)
			v, err := m.Weighted(w)
			if err != nil {
				return 0
			}
			return v
		}
		if score(uniform) < score(weighted) {
			uniform.States += weighted.States
			return uniform, nil
		}
		weighted.States += uniform.States
		return weighted, nil
	}
	return solveOnce(ctx, d, opts)
}

// solveOnce is one search run under a single objective: cluster the
// design into candidate sets, search every set, keep the best scheme.
func solveOnce(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	m, sets, err := candidateSets(d, opts)
	if err != nil {
		return nil, err
	}
	snaps := make([]*snapshot, len(sets))
	counts := make([]int, len(sets))
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stopSearch := opts.Obs.Timer("partition.phase.search").Time()
	busy := opts.Obs.Timer("partition.worker_busy")
	// runSet searches one candidate set with a per-worker scratch drawn
	// from scratchPool; the searcher itself is cheap, the scratch holds
	// the buffers and caches worth keeping warm across sets and solves.
	runSet := func(i int, sc *scratch) {
		snaps[i], counts[i] = newSearcher(d, m, sets[i], opts, sc).run()
	}
	if workers <= 1 || len(sets) <= 1 {
		opts.Obs.Gauge("partition.workers").Observe(1)
		stopBusy := busy.Time()
		sc := getScratch()
		for i := range sets {
			if ctx.Err() != nil {
				break
			}
			runSet(i, sc)
		}
		putScratch(sc)
		stopBusy()
	} else {
		opts.Obs.Gauge("partition.workers").Observe(int64(workers))
		// Buffered and prefilled so workers never block handing out
		// work, and the producer never waits on a slow worker.
		jobs := make(chan int, len(sets))
		for i := range sets {
			jobs <- i
		}
		close(jobs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stopBusy := busy.Time()
				defer stopBusy()
				sc := getScratch()
				defer putScratch(sc)
				for i := range jobs {
					if ctx.Err() != nil {
						continue // drain without searching
					}
					runSet(i, sc)
				}
			}()
		}
		wg.Wait()
	}
	stopSearch()
	if err := ctx.Err(); err != nil {
		opts.Obs.Emit("partition", "search.cancelled",
			obs.Str("design", d.Name), obs.Str("cause", err.Error()))
		return nil, fmt.Errorf("partition: search cancelled: %w", err)
	}
	return bestResult(d, opts, snaps, counts)
}

// candidateSets is the search's clustering phase: it validates the
// design and options, rejects a budget below the single-region minimum,
// and returns the connectivity matrix with the candidate sets to search.
func candidateSets(d *design.Design, opts Options) (*connmat.Matrix, []*cover.CandidateSet, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("partition: invalid design: %w", err)
	}
	if len(opts.PinnedStatic) > 0 {
		if opts.NoStatic {
			return nil, nil, errors.New("partition: PinnedStatic conflicts with NoStatic")
		}
		used := make(map[design.ModeRef]bool)
		for _, r := range d.UsedModes() {
			used[r] = true
		}
		for _, r := range opts.PinnedStatic {
			if !used[r] {
				return nil, nil, fmt.Errorf("partition: pinned mode %s is not used by any configuration", d.ModeName(r))
			}
		}
	}
	stopCluster := opts.Obs.Timer("partition.phase.cluster").Time()
	m := connmat.New(d)

	// Feasibility pre-check (§IV-C): the minimum possible area is the
	// largest configuration in a single region.
	if !SingleRegion(d).FitsIn(opts.Budget) {
		stopCluster()
		return nil, nil, ErrInfeasible
	}

	parts, err := basepart.BasePartitions(m)
	if err != nil {
		stopCluster()
		return nil, nil, err
	}
	ordered := cover.Order(parts)
	if opts.CoverDescending {
		for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
			ordered[i], ordered[j] = ordered[j], ordered[i]
		}
	}
	limit := opts.maxSets()
	if opts.GreedyOnly {
		limit = 1
	}
	sets := cover.SetsN(ordered, m, limit)
	stopCluster()
	opts.Obs.Counter("partition.candidate_sets").Add(int64(len(sets)))
	opts.Obs.Emit("partition", "search.start",
		obs.Str("design", d.Name), obs.Int("candidate_sets", int64(len(sets))))

	return m, sets, nil
}

// bestResult is the search's selection phase: the best snapshot over
// all candidate sets (the earliest set wins a tie) becomes the Result,
// with counts[i] the states candidate set i explored.
func bestResult(d *design.Design, opts Options, snaps []*snapshot, counts []int) (*Result, error) {
	var best *snapshot
	states := 0
	for i, snap := range snaps {
		states += counts[i]
		if snap != nil && (best == nil || snap.better(best)) {
			best = snap
		}
	}
	opts.Obs.Counter("partition.states").Add(int64(states))
	if best == nil {
		opts.Obs.Emit("partition", "search.done",
			obs.Str("design", d.Name), obs.Int("states", int64(states)),
			obs.Str("result", "no-scheme"))
		return nil, ErrNoScheme
	}
	opts.Obs.Emit("partition", "search.done",
		obs.Str("design", d.Name), obs.Int("states", int64(states)),
		obs.Int("best_cost", best.cost), obs.Int("regions", int64(len(best.st.groups))))
	sch, err := best.scheme("proposed")
	if err != nil {
		return nil, err
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: best scheme invalid: %w", err)
	}
	_, sum := cost.Evaluate(sch)
	return &Result{
		Scheme:        sch,
		Summary:       sum,
		CandidateSets: len(snaps),
		States:        states,
		Trace:         best.trace(),
	}, nil
}

// group is one region under construction: a set of pairwise compatible
// candidate parts. Groups are immutable after newGroup returns — states
// and snapshots share pointers, and the delta cache keys entries by id.
type group struct {
	id      uint64          // per-candidate-set sequence number (delta-cache key)
	parts   []int           // indices into searcher.parts
	res     resource.Vector // raw per-resource max over parts
	raw     resource.Vector // per-resource sum over parts (static-promotion area)
	area    resource.Vector // tile-quantised capacity
	frames  int64           // search-cost frames (scaled by frameScale)
	active  int             // number of configurations that activate the group
	sumSq   int64           // Σ over parts of (activation count)²
	act     []int32         // per config: active part + 1 (weighted mode only)
	contrib int64           // frames × (weighted) differing-pair mass
	// mask is the union of the parts' configuration masks: two groups
	// may merge iff their masks are disjoint, an O(configs/64) probe
	// whatever the groups' sizes. With at most 64 configurations it is
	// backed by maskWord, so building a group stays one allocation.
	mask     compat.Mask
	maskWord [1]uint64
}

// diffPairs is the number of configuration pairs whose transition
// reconfigures the group: both sides active with different parts.
func (g *group) diffPairs() int64 {
	a := int64(g.active)
	return (a*a - g.sumSq) / 2
}

// frameScale keeps quantised and idealised frame counts in a common
// integer unit (1/20th of a frame).
const frameScale = 20

type searcher struct {
	d    *design.Design
	cs   *cover.CandidateSet
	opts Options
	tab  *compat.Table

	partRes []resource.Vector // per part: raw resources
	partAct []int             // per part: number of configs activating it
	// weights[i][j] is the scaled symmetric pair weight (nil = uniform).
	weights [][]int64

	// sc holds the reusable buffers, delta cache and quantisation memo
	// (see delta.go); reset per candidate set, shared across the sets a
	// worker processes.
	sc *scratch

	// scan is the greedy descent's move scan (see scan.go): one shard
	// on the solve path, which parallelises over candidate sets;
	// RefineContext lets large states shard over Options.Workers.
	scan moveScan

	// Observability instruments, resolved once per searcher; all nil when
	// Options.Obs is nil, making every update a single branch.
	cMoves, cRejects, cDescents *obs.Counter
	cDeltaHit, cDeltaMiss       *obs.Counter
	cQuantHit, cQuantMiss       *obs.Counter
	cSnapSkip                   *obs.Counter
	gDepth                      *obs.Gauge
}

// flushCounts adds the scratch tallies of this searcher's scans — its
// own scratch and, after a sharded refine, every shard's — to the
// shared counters. It runs once per searcher: once per candidate set on
// the solve path, once per RefineContext.
func (s *searcher) flushCounts() {
	n := s.sc.n
	for _, sc := range s.scan.scratches {
		if sc != nil {
			n.deltaHit += sc.n.deltaHit
			n.deltaMiss += sc.n.deltaMiss
			n.quantHit += sc.n.quantHit
			n.quantMiss += sc.n.quantMiss
		}
	}
	s.cDeltaHit.Add(n.deltaHit)
	s.cDeltaMiss.Add(n.deltaMiss)
	s.cQuantHit.Add(n.quantHit)
	s.cQuantMiss.Add(n.quantMiss)
	s.cSnapSkip.Add(n.snapSkip)
}

// weightScale converts float transition weights into integer cost units.
const weightScale = 1 << 20

// checkWeights validates a transition-weight matrix.
func checkWeights(w [][]float64, n int) error {
	if len(w) != n {
		return fmt.Errorf("partition: transition weights have %d rows for %d configurations", len(w), n)
	}
	for i, row := range w {
		if len(row) != n {
			return fmt.Errorf("partition: transition weight row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("partition: negative transition weight w(%d,%d) = %g", i, j, v)
			}
		}
	}
	return nil
}

func newSearcher(d *design.Design, m *connmat.Matrix, cs *cover.CandidateSet, opts Options, sc *scratch) *searcher {
	s := &searcher{d: d, cs: cs, opts: opts, sc: sc}
	// Caches are reset per candidate set so cache-counter values are a
	// pure function of the input, independent of how sets are spread
	// over workers (the serial-vs-parallel obs-identity contract).
	sc.reset()
	s.cMoves = opts.Obs.Counter("partition.moves_evaluated")
	s.cRejects = opts.Obs.Counter("partition.moves_rejected")
	s.cDescents = opts.Obs.Counter("partition.descents")
	s.cDeltaHit = opts.Obs.Counter("partition.delta_cache_hits")
	s.cDeltaMiss = opts.Obs.Counter("partition.delta_cache_misses")
	s.cQuantHit = opts.Obs.Counter("partition.quant_memo_hits")
	s.cQuantMiss = opts.Obs.Counter("partition.quant_memo_misses")
	s.cSnapSkip = opts.Obs.Counter("partition.snapshots_skipped")
	s.gDepth = opts.Obs.Gauge("partition.descent_depth_max")
	sets := make([]modeset.Set, len(cs.Parts))
	for i, p := range cs.Parts {
		sets[i] = p.Set
	}
	s.tab = compat.NewTable(m, sets)
	s.scan = moveScan{s: s, maxShards: 1, workers: 1}
	s.partRes = make([]resource.Vector, len(cs.Parts))
	s.partAct = make([]int, len(cs.Parts))
	for pi, p := range cs.Parts {
		s.partRes[pi] = p.Resources
		n := 0
		for ci := range cs.Active {
			if cs.Active[ci][pi] {
				n++
			}
		}
		s.partAct[pi] = n
	}
	if w := opts.TransitionWeights; w != nil {
		nCfg := len(d.Configurations)
		s.weights = make([][]int64, nCfg)
		for i := 0; i < nCfg; i++ {
			s.weights[i] = make([]int64, nCfg)
			for j := 0; j < nCfg; j++ {
				// Symmetrise: an unordered pair's weight is the mean of
				// the two directed entries.
				s.weights[i][j] = int64((w[i][j] + w[j][i]) / 2 * weightScale)
			}
		}
	}
	return s
}
