// Package serve is the repo's long-running partitioning service: an
// HTTP/JSON API over the §IV search with a bounded worker pool, a
// content-addressed solve cache, singleflight request coalescing,
// per-request deadlines, backpressure and graceful shutdown. The
// cmd/prpartd daemon is a thin wrapper around Server; the prpart CLI
// shares this package's request canonicalization (SolveSpec) and result
// rendering (WriteResult), so the daemon's responses are byte-identical
// to `prpart -json` output and both sides derive the same cache key for
// the same input.
package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/resource"
)

// SolveSpec is the canonical, decoded form of a solve request: the
// design plus every option that can change the answer. It is the unit
// the cache key is computed over — execution details (worker count,
// deadline, observability) are deliberately not part of it, because the
// search result is deterministic regardless of them.
type SolveSpec struct {
	// Design is the validated design to partition.
	Design *design.Design
	// Device pins the target FPGA ("" = smallest feasible).
	Device string
	// Budget caps the usable resources (zero = device capacity).
	Budget resource.Vector
	// NoStatic, Greedy and NoQuantize select the paper's ablations.
	NoStatic   bool
	Greedy     bool
	NoQuantize bool
	// MaxCandidateSets / MaxFirstMoves bound the search (0 = default).
	MaxCandidateSets int
	MaxFirstMoves    int
	// Pinned lists modes forced into static logic.
	Pinned []design.ModeRef
	// CoverDescending reverses the covering order (ablation A5).
	CoverDescending bool
	// Weights optionally skews the objective by transition probability.
	Weights [][]float64
	// Floorplan asks for region placements in the result.
	Floorplan bool
	// Multilevel routes the solve through the coarsen–partition–refine
	// engine; MultilevelSeed and MultilevelThreshold tune it. The three
	// fields are hashed into the cache key only when Multilevel is set,
	// so every pre-existing request keeps its key.
	Multilevel          bool
	MultilevelSeed      int64
	MultilevelThreshold int
	// Workers, when nonzero, pins the solve's worker count for this
	// request (candidate-set workers and the per-level refine scan),
	// overriding the daemon/CLI default. Results are provably identical
	// at any worker count (see partition/scan.go), but a set
	// value is still hashed into the cache key — the key stays a
	// complete record of the request — while unset requests keep their
	// pre-existing keys.
	Workers int
}

// keySchema versions the canonical byte layout Key hashes. Bump it
// whenever the layout (or the meaning of any hashed field) changes, so
// stale caches can never serve results computed under old semantics.
const keySchema = "prpart-solve/v1"

// Key returns the content-addressed cache key of the spec:
// "sha256:<hex>" over a canonical serialization of the design and every
// result-affecting option. Two requests with the same key are guaranteed
// to have byte-identical results, whichever codec (JSON or XML) the
// design arrived in, because the design is re-encoded through the
// normalizing JSON codec before hashing.
func (sp *SolveSpec) Key() (string, error) {
	if sp.Design == nil {
		return "", fmt.Errorf("serve: spec has no design")
	}
	h := sha256.New()
	io.WriteString(h, keySchema+"\n")
	if err := design.EncodeJSON(h, sp.Design); err != nil {
		return "", fmt.Errorf("serve: canonicalizing design: %w", err)
	}
	fmt.Fprintf(h, "device=%s\n", sp.Device)
	fmt.Fprintf(h, "budget=%d,%d,%d\n", sp.Budget.CLB, sp.Budget.BRAM, sp.Budget.DSP)
	fmt.Fprintf(h, "noStatic=%t greedy=%t noQuantize=%t coverDesc=%t floorplan=%t\n",
		sp.NoStatic, sp.Greedy, sp.NoQuantize, sp.CoverDescending, sp.Floorplan)
	fmt.Fprintf(h, "maxSets=%d maxFirst=%d\n", sp.MaxCandidateSets, sp.MaxFirstMoves)
	pins := append([]design.ModeRef(nil), sp.Pinned...)
	sort.Slice(pins, func(i, j int) bool {
		if pins[i].Module != pins[j].Module {
			return pins[i].Module < pins[j].Module
		}
		return pins[i].Mode < pins[j].Mode
	})
	for _, p := range pins {
		fmt.Fprintf(h, "pin=%s\n", p)
	}
	for i, row := range sp.Weights {
		fmt.Fprintf(h, "w%d=", i)
		for _, v := range row {
			fmt.Fprintf(h, "%.17g,", v)
		}
		io.WriteString(h, "\n")
	}
	if sp.Multilevel {
		fmt.Fprintf(h, "multilevel seed=%d threshold=%d\n",
			sp.MultilevelSeed, sp.MultilevelThreshold)
	}
	if sp.Workers != 0 {
		fmt.Fprintf(h, "workers=%d\n", sp.Workers)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), nil
}

// CoreOptions materialises the flow options for the spec. Workers and
// obs are execution details layered on top of the canonical request;
// a nonzero sp.Workers overrides the caller's default.
func (sp *SolveSpec) CoreOptions(workers int, o *obs.Obs) core.Options {
	if sp.Workers != 0 {
		workers = sp.Workers
	}
	return core.Options{
		Device:              sp.Device,
		Budget:              sp.Budget,
		SkipBackend:         true,
		Multilevel:          sp.Multilevel,
		MultilevelSeed:      sp.MultilevelSeed,
		MultilevelThreshold: sp.MultilevelThreshold,
		Partition: partition.Options{
			NoStatic:          sp.NoStatic,
			GreedyOnly:        sp.Greedy,
			NoQuantize:        sp.NoQuantize,
			MaxCandidateSets:  sp.MaxCandidateSets,
			MaxFirstMoves:     sp.MaxFirstMoves,
			PinnedStatic:      sp.Pinned,
			CoverDescending:   sp.CoverDescending,
			TransitionWeights: sp.Weights,
			Workers:           workers,
			Obs:               o,
		},
	}
}
