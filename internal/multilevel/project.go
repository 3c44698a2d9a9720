package multilevel

import (
	"fmt"
	"sort"

	"prpart/internal/basepart"
	"prpart/internal/compat"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/partition"
	"prpart/internal/scheme"
)

// grouping is a partition of a level's nodes into region groups plus a
// static set — the state handed between levels.
type grouping struct {
	groups [][]int
	static []int
}

// singletons is the trivial grouping: every node its own region.
func singletons(n int) grouping {
	g := grouping{groups: make([][]int, n)}
	for i := range g.groups {
		g.groups[i] = []int{i}
	}
	return g
}

// coarseDesign materialises a level as a standalone design the standard
// engine can solve: one single-mode module per node (named by node
// index), each original configuration projected onto the nodes it
// activates, duplicates collapsed (design.Validate rejects duplicate
// configurations, and contraction routinely makes distinct fine
// configurations indistinguishable at a coarse level).
func coarseDesign(d *design.Design, lv *level) (*design.Design, error) {
	cd := &design.Design{Name: d.Name + "-coarse", Static: d.Static}
	for i := range lv.nodes {
		cd.Modules = append(cd.Modules, &design.Module{
			Name:  fmt.Sprintf("N%04d", i),
			Modes: []design.Mode{{Name: "1", Resources: lv.nodes[i].res}},
		})
	}
	seen := make(map[string]bool)
	for ci := range lv.configNodes {
		row := lv.configNodes[ci]
		key := fmt.Sprint(row)
		if seen[key] {
			continue
		}
		seen[key] = true
		modes := make([]int, len(lv.nodes))
		for _, id := range row {
			modes[id] = 1
		}
		cd.Configurations = append(cd.Configurations, design.Configuration{Modes: modes})
	}
	if err := cd.Validate(); err != nil {
		return nil, fmt.Errorf("multilevel: coarse design invalid: %w", err)
	}
	return cd, nil
}

// schemeGrouping maps a coarse-design scheme of level lv back to a
// grouping over lv's nodes: each region's parts reference coarse
// modules, whose indices are node indices. Two things keep the result
// a valid warm start. The scheme's candidate parts may overlap
// (cover.Sets can keep a part that shares nodes with another), so one
// node can sit in two regions, or in a region and in static logic:
// each node is kept at its first placement — regions in scheme order,
// then static — and a region left empty is dropped. And a multi-node
// part holds nodes that co-activate, which may share a region as one
// part but not as separate nodes: each region's nodes are re-packed
// into pairwise-compatible subgroups (see pack), sorted. A region whose
// nodes are already compatible maps to one group, exactly as before.
func schemeGrouping(sch *scheme.Scheme, lv *level) grouping {
	var g grouping
	placed := make([]bool, len(lv.nodes))
	take := func(ids []int, p basepart.BasePartition) []int {
		for _, r := range p.Set.Refs() {
			if !placed[r.Module] {
				placed[r.Module] = true
				ids = append(ids, r.Module)
			}
		}
		return ids
	}
	for _, reg := range sch.Regions {
		var ids []int
		for _, p := range reg.Parts {
			ids = take(ids, p)
		}
		for _, sub := range pack(lv, ids) {
			sort.Ints(sub)
			g.groups = append(g.groups, sub)
		}
	}
	for _, p := range sch.Static {
		g.static = take(g.static, p)
	}
	sort.Ints(g.static)
	return g
}

// project expands a grouping of the coarser level lv (which was built
// by contracting fine) onto fine's nodes. Children of one coarse node
// may be mutually incompatible with children of another (contraction
// merges wrapper-style: constituents co-reside, they don't co-activate
// with siblings' constituents), so each coarse region's child set is
// re-packed into pairwise-compatible subgroups. Static coarse nodes
// project losslessly — static capacity is additive.
func project(fine, lv *level, g grouping) grouping {
	children := make([][]int, len(lv.nodes))
	for i, id := range lv.from {
		children[id] = append(children[id], i)
	}
	var out grouping
	for _, grp := range g.groups {
		var kids []int
		for _, id := range grp {
			kids = append(kids, children[id]...)
		}
		out.groups = append(out.groups, pack(fine, kids)...)
	}
	for _, id := range g.static {
		out.static = append(out.static, children[id]...)
	}
	sort.Ints(out.static)
	return out
}

// pack splits nodes of lv into pairwise-compatible subgroups, first
// fit: nodes are taken largest-frames-first (ties by index) and each
// lands in the first subgroup whose accumulated configuration mask it
// does not intersect. ids is reordered in place.
func pack(lv *level, ids []int) [][]int {
	sort.Slice(ids, func(a, b int) bool {
		fa := device.Frames(lv.nodes[ids[a]].res)
		fb := device.Frames(lv.nodes[ids[b]].res)
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	var subs [][]int
	var masks []compat.Mask
	for _, id := range ids {
		placed := false
		for si := range subs {
			if !masks[si].Intersects(lv.nodes[id].mask) {
				subs[si] = append(subs[si], id)
				masks[si].Or(lv.nodes[id].mask)
				placed = true
				break
			}
		}
		if !placed {
			subs = append(subs, []int{id})
			masks = append(masks, append(compat.Mask(nil), lv.nodes[id].mask...))
		}
	}
	return subs
}

// warmStart converts a level and a grouping into the partition engine's
// refinement input: one candidate part per node (its fine mode set, its
// summed resources) and the level's activation table.
func warmStart(lv *level, g grouping) partition.WarmStart {
	ws := partition.WarmStart{
		Parts:  make([]basepart.BasePartition, len(lv.nodes)),
		Active: make([][]bool, len(lv.configNodes)),
		Groups: g.groups,
		Static: g.static,
	}
	for i := range lv.nodes {
		ws.Parts[i] = basepart.BasePartition{
			Set:        lv.nodes[i].set,
			FreqWeight: lv.nodes[i].mask.Count(),
			Resources:  lv.nodes[i].res,
		}
	}
	for ci, row := range lv.configNodes {
		act := make([]bool, len(lv.nodes))
		for _, id := range row {
			act[id] = true
		}
		ws.Active[ci] = act
	}
	return ws
}
