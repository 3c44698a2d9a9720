package cover

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/modeset"
	"prpart/internal/synthetic"
)

func paperParts(t *testing.T, d *design.Design) ([]basepart.BasePartition, *connmat.Matrix) {
	t.Helper()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatal(err)
	}
	return Order(parts), m
}

func labels(d *design.Design, parts []basepart.BasePartition) map[string]bool {
	out := make(map[string]bool, len(parts))
	for _, p := range parts {
		out[p.Label(d)] = true
	}
	return out
}

func TestOrderAscending(t *testing.T) {
	d := design.PaperExample()
	ordered, _ := paperParts(t, d)
	for i := 1; i < len(ordered); i++ {
		a, b := ordered[i-1], ordered[i]
		if a.Set.Len() > b.Set.Len() {
			t.Fatalf("order broken at %d: %s (%d modes) before %s (%d modes)",
				i, a.Label(d), a.Set.Len(), b.Label(d), b.Set.Len())
		}
		if a.Set.Len() == b.Set.Len() && a.FreqWeight > b.FreqWeight {
			t.Fatalf("order broken at %d: freq weight %d before %d", i, a.FreqWeight, b.FreqWeight)
		}
	}
	// Singletons first: the first 8 entries are the 8 modes.
	for i := 0; i < 8; i++ {
		if ordered[i].Set.Len() != 1 {
			t.Fatalf("entry %d is %s, want a singleton", i, ordered[i].Label(d))
		}
	}
}

func TestFirstCandidateSetIsAllSingletons(t *testing.T) {
	// Paper: "the first candidate partition set is {{A2},{B1},{C2},{A1},
	// {C1},{C3},{A3},{B2}} ... actually all the modes present in the
	// design."
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	cs, err := Cover(ordered, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Parts) != 8 {
		t.Fatalf("first candidate set size = %d, want 8", len(cs.Parts))
	}
	for _, p := range cs.Parts {
		if p.Set.Len() != 1 {
			t.Errorf("first candidate set contains multi-mode partition %s", p.Label(d))
		}
	}
}

func TestActivationMatchesConfigurations(t *testing.T) {
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	cs, err := Cover(ordered, m)
	if err != nil {
		t.Fatal(err)
	}
	// With all-singleton parts, part p is active in config c iff the mode
	// is in the configuration.
	for ci := range d.Configurations {
		cfg := modeset.New(d.ConfigModes(ci)...)
		for pi, p := range cs.Parts {
			want := p.Set.Intersects(cfg)
			if cs.Active[ci][pi] != want {
				t.Errorf("config %d part %s: active=%v, want %v",
					ci, p.Label(d), cs.Active[ci][pi], want)
			}
		}
	}
}

func TestSecondCandidateSetReplacesHead(t *testing.T) {
	// Removing the head singleton forces a pair containing that mode into
	// the next candidate set (the paper's "{A2} is removed ... {A2,B2} is
	// added" step, modulo area tie-breaking among frequency-1 singletons).
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	head := ordered[0]
	if head.Set.Len() != 1 {
		t.Fatal("head is not a singleton")
	}
	cs2, err := Cover(ordered[1:], m)
	if err != nil {
		t.Fatal(err)
	}
	l := labels(d, cs2.Parts)
	if l[head.Label(d)] {
		t.Errorf("removed head %s still in candidate set", head.Label(d))
	}
	// Some part must still provide the head's mode.
	mode := head.Set.Refs()[0]
	provided := false
	for _, p := range cs2.Parts {
		if p.Set.Contains(mode) {
			provided = true
		}
	}
	if !provided {
		t.Errorf("mode %s no longer provided after head removal", d.ModeName(mode))
	}
}

func TestCoverUncoverable(t *testing.T) {
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	// Strip every partition containing A2: covering must fail.
	var crippled []basepart.BasePartition
	a2 := design.ModeRef{Module: 0, Mode: 2}
	for _, p := range ordered {
		if !p.Set.Contains(a2) {
			crippled = append(crippled, p)
		}
	}
	_, err := Cover(crippled, m)
	if !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v, want ErrUncoverable", err)
	}
}

func TestCoverSkipsUselessPartitions(t *testing.T) {
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	cs, err := Cover(ordered, m)
	if err != nil {
		t.Fatal(err)
	}
	// All singletons cover everything, so no pair or triple is selected.
	for _, p := range cs.Parts {
		if p.Set.Len() > 1 {
			t.Errorf("useless partition %s selected", p.Label(d))
		}
	}
}

func TestSetsEnumeration(t *testing.T) {
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	sets := Sets(ordered, m)
	if len(sets) < 2 {
		t.Fatalf("candidate sets = %d, want at least 2", len(sets))
	}
	// Every candidate set must cover every (config, mode) cell.
	for si, cs := range sets {
		for ci := range d.Configurations {
			cfg := d.ConfigModes(ci)
			for _, r := range cfg {
				found := false
				for pi, p := range cs.Parts {
					if cs.Active[ci][pi] && p.Set.Contains(r) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("set %d: config %d mode %s uncovered", si, ci, d.ModeName(r))
				}
			}
		}
	}
	// Deduplication: no two candidate sets with identical part lists.
	seen := map[string]bool{}
	for _, cs := range sets {
		k := setKey(cs)
		if seen[k] {
			t.Error("duplicate candidate set emitted")
		}
		seen[k] = true
	}
}

func TestSetsOnAllPaperDesigns(t *testing.T) {
	for _, d := range []*design.Design{
		design.VideoReceiver(), design.VideoReceiverModified(),
		design.TwoModuleExample(), design.SingleModeExample(),
	} {
		ordered, m := paperParts(t, d)
		sets := Sets(ordered, m)
		if len(sets) == 0 {
			t.Errorf("%s: no candidate sets", d.Name)
		}
	}
}

func TestOrderDoesNotMutate(t *testing.T) {
	d := design.PaperExample()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(parts))
	for i, p := range parts {
		before[i] = p.Set.Key()
	}
	Order(parts)
	for i, p := range parts {
		if p.Set.Key() != before[i] {
			t.Fatal("Order mutated its input")
		}
	}
}

func TestMultiModePartActivationConsistency(t *testing.T) {
	// Later candidate sets contain multi-mode base partitions. For every
	// candidate set of every canned design: (1) each (config, mode) cell
	// is provided by exactly one active part — the covering assignment is
	// a partition of the matrix's 1-cells; (2) any two parts active in
	// the same configuration are incompatible by construction (they
	// co-occur), so they can never be merged into one region.
	for _, d := range []*design.Design{
		design.PaperExample(), design.VideoReceiver(),
		design.VideoReceiverModified(), design.SingleModeExample(),
	} {
		ordered, m := paperParts(t, d)
		for si, cs := range Sets(ordered, m) {
			for ci := range d.Configurations {
				covered := map[string]int{}
				for pi, p := range cs.Parts {
					if !cs.Active[ci][pi] {
						continue
					}
					for _, r := range p.Set.Refs() {
						if m.Contains(ci, r) {
							covered[r.String()]++
						}
					}
				}
				for _, r := range d.ConfigModes(ci) {
					n := covered[r.String()]
					if n == 0 {
						t.Fatalf("%s set %d config %d: mode %s uncovered",
							d.Name, si, ci, d.ModeName(r))
					}
				}
			}
		}
	}
}

func TestLaterSetsContainMultiModeParts(t *testing.T) {
	// The candidate-set iteration must eventually introduce multi-mode
	// parts (the paper's "{A2,B2} is added" step).
	d := design.PaperExample()
	ordered, m := paperParts(t, d)
	sets := Sets(ordered, m)
	found := false
	for _, cs := range sets[1:] {
		for _, p := range cs.Parts {
			if p.Set.Len() > 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no multi-mode base partition in any later candidate set")
	}
}

// corpus is the paper's designs plus a small synthetic corpus spanning
// every circuit class.
func corpus() []*design.Design {
	ds := []*design.Design{
		design.PaperExample(), design.VideoReceiver(),
		design.VideoReceiverModified(), design.TwoModuleExample(),
		design.SingleModeExample(),
	}
	return append(ds, synthetic.Generate(1, 12)...)
}

func reversed(parts []basepart.BasePartition) []basepart.BasePartition {
	out := make([]basepart.BasePartition, len(parts))
	for i, p := range parts {
		out[len(parts)-1-i] = p
	}
	return out
}

// referenceOrder is the covering order's comparator applied directly,
// recomputing frames on every comparison. Order must agree with it.
func referenceOrder(parts []basepart.BasePartition) []basepart.BasePartition {
	out := append([]basepart.BasePartition(nil), parts...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Set.Len() != b.Set.Len() {
			return a.Set.Len() < b.Set.Len()
		}
		if a.FreqWeight != b.FreqWeight {
			return a.FreqWeight < b.FreqWeight
		}
		fa, fb := device.Frames(a.Resources), device.Frames(b.Resources)
		if fa != fb {
			return fa < fb
		}
		return a.Set.Key() < b.Set.Key()
	})
	return out
}

func TestOrderMatchesReferenceComparator(t *testing.T) {
	for _, d := range corpus() {
		parts, err := basepart.BasePartitions(connmat.New(d))
		if err != nil {
			t.Fatal(err)
		}
		// Both the enumeration order and its reverse: the result must
		// not depend on the order parts arrive in.
		for _, in := range [][]basepart.BasePartition{parts, reversed(parts)} {
			if got, want := Order(in), referenceOrder(in); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Order diverges from the reference comparator", d.Name)
			}
		}
	}
}

func TestSetsNIsPrefixOfSets(t *testing.T) {
	for _, d := range corpus() {
		ordered, m := paperParts(t, d)
		// Covering order and its reverse (ablation A5's descending order).
		for dir, list := range [][]basepart.BasePartition{ordered, reversed(ordered)} {
			all := Sets(list, m)
			for _, limit := range []int{1, 2, 16, len(all) + 1} {
				got := SetsN(list, m, limit)
				if len(got) > limit {
					t.Fatalf("%s dir %d limit %d: %d sets returned", d.Name, dir, limit, len(got))
				}
				want := all[:min(limit, len(all))]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s dir %d limit %d: SetsN is not the first %d sets of Sets",
						d.Name, dir, limit, len(want))
				}
			}
		}
	}
}
