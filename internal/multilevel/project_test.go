package multilevel

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/compat"
	"prpart/internal/design"
	"prpart/internal/modeset"
	"prpart/internal/partition"
	"prpart/internal/scheme"
	"prpart/internal/synthetic"
)

// TestSchemeGroupingPlacesEachNodeOnce feeds schemeGrouping a coarse
// scheme whose candidate parts overlap — node 3 in two regions, node 5
// in a region and in static logic, one region holding only nodes placed
// before it — and whose first region holds the multi-node part {1, 3}
// of two co-activating nodes. Every node must come out in exactly one
// place (its first: regions in scheme order, then static), the emptied
// region must be dropped, every group must be internally compatible,
// and groups stay sorted.
func TestSchemeGroupingPlacesEachNodeOnce(t *testing.T) {
	// Configuration masks over four configurations: nodes 1 and 3
	// co-activate in configuration 0, node 3 also in 1, with node 0.
	configs := [][]int{0: {1}, 1: {0}, 2: {2}, 3: {0, 1}, 4: {}, 5: {2}, 6: {}, 7: {3}}
	lv := &level{nodes: make([]node, len(configs))}
	for i, cs := range configs {
		lv.nodes[i].mask = compat.NewMask(4)
		for _, c := range cs {
			lv.nodes[i].mask.Set(c)
		}
	}
	part := func(nodes ...int) basepart.BasePartition {
		refs := make([]design.ModeRef, len(nodes))
		for i, n := range nodes {
			refs[i] = design.ModeRef{Module: n, Mode: 1}
		}
		return basepart.BasePartition{Set: modeset.New(refs...)}
	}
	sch := &scheme.Scheme{
		Regions: []scheme.Region{
			{Parts: []basepart.BasePartition{part(3, 1), part(0)}},
			{Parts: []basepart.BasePartition{part(7), part(3, 5)}},
			{Parts: []basepart.BasePartition{part(1), part(0, 3)}},
			{Parts: []basepart.BasePartition{part(2)}},
		},
		Static: []basepart.BasePartition{part(6), part(5, 4)},
	}
	got := schemeGrouping(sch, lv)
	want := grouping{
		groups: [][]int{{0, 1}, {3}, {5, 7}, {2}},
		static: []int{4, 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schemeGrouping = %+v, want %+v", got, want)
	}
}

// TestMultilevelOverlappingCoarseScheme solves the two huge-tier
// designs whose coarse solve keeps overlapping candidate parts (one
// coarse node lands in two regions): design 17 of seed 1 (600 modes)
// and design 22 of seed 2 (700 modes) of the stream that draws designs
// i = 0, 1, ... from rand.NewSource(seed ^ 0x5eed0002) as
// HugeOne(rng, Class(i%4), name, size), size 500/600/700 changing every
// four designs. Both must solve through SolveContext and pass the
// oracle.
func TestMultilevelOverlappingCoarseScheme(t *testing.T) {
	if raceEnabled {
		t.Skip("two 600-700 mode multilevel solves")
	}
	for _, c := range []struct {
		seed  int64
		index int
	}{{1, 17}, {2, 22}} {
		rng := rand.New(rand.NewSource(c.seed ^ 0x5eed0002))
		var d *design.Design
		for i := 0; i <= c.index; i++ {
			size := []int{500, 600, 700}[(i/4)%3]
			d = synthetic.HugeOne(rng, synthetic.Class(i%4), fmt.Sprintf("huge-s%d-%03d", c.seed, i), size)
		}
		budget := partition.Modular(d).TotalResources()
		res, err := SolveContext(context.Background(), d, Options{Partition: partition.Options{Budget: budget}})
		if err != nil {
			dumpArtifact(t, d)
			t.Fatalf("%s: %v", d.Name, err)
		}
		verifyAgainstOracle(t, d.Name, res.Partition, budget)
	}
}
