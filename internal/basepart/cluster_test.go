package basepart

import (
	"strings"
	"testing"

	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/modeset"
)

func table1Want() map[string]int {
	// The paper's Table I: every base partition of the worked example with
	// its frequency weight. Keys use "Module.Mode" labels.
	return map[string]int{
		"{A.2}": 1, "{C.2}": 1, "{B.1}": 1,
		"{A.1}": 2, "{C.1}": 2, "{C.3}": 2, "{A.3}": 2,
		"{B.2}":      4,
		"{A.1, B.2}": 1, "{B.2, C.1}": 1, "{A.1, C.1}": 1,
		"{B.2, C.2}": 1, "{A.2, B.2}": 1, "{A.1, C.2}": 1,
		"{A.1, B.1}": 1, "{B.1, C.1}": 1, "{A.2, C.3}": 1,
		"{A.3, C.1}": 1, "{A.3, C.3}": 1,
		"{B.2, C.3}": 2, "{A.3, B.2}": 2,
		"{A.3, B.2, C.3}": 1, "{A.1, B.1, C.1}": 1, "{A.3, B.2, C.1}": 1,
		"{A.1, B.2, C.2}": 1, "{A.2, B.2, C.3}": 1,
	}
}

func TestTable1BasePartitions(t *testing.T) {
	d := design.PaperExample()
	parts, err := BasePartitions(connmat.New(d))
	if err != nil {
		t.Fatal(err)
	}
	want := table1Want()
	if len(parts) != len(want) {
		t.Errorf("base partitions = %d, want %d", len(parts), len(want))
	}
	got := make(map[string]int)
	for _, bp := range parts {
		label := bp.Label(d)
		if _, dup := got[label]; dup {
			t.Errorf("duplicate base partition %s", label)
		}
		got[label] = bp.FreqWeight
	}
	for label, fw := range want {
		gfw, ok := got[label]
		if !ok {
			t.Errorf("missing base partition %s", label)
			continue
		}
		if gfw != fw {
			t.Errorf("%s: frequency weight = %d, want %d", label, gfw, fw)
		}
	}
	for label := range got {
		if _, ok := want[label]; !ok {
			t.Errorf("unexpected base partition %s (not in Table I)", label)
		}
	}
}

func TestNonConfigurationCliqueExcluded(t *testing.T) {
	// {A1,B2,C1} is a triangle of the co-occurrence graph but no single
	// configuration contains all three; Table I omits it.
	d := design.PaperExample()
	parts, err := BasePartitions(connmat.New(d))
	if err != nil {
		t.Fatal(err)
	}
	bad := modeset.New(
		design.ModeRef{Module: 0, Mode: 1},
		design.ModeRef{Module: 1, Mode: 2},
		design.ModeRef{Module: 2, Mode: 1},
	)
	for _, bp := range parts {
		if bp.Set.Key() == bad.Key() {
			t.Fatalf("clique %s must not become a base partition", bp.Label(d))
		}
	}
}

func TestEdgesDescendingAndFirstLink(t *testing.T) {
	d := design.PaperExample()
	edges := allEdges(connmat.New(d))
	if len(edges) == 0 {
		t.Fatal("no edges to insert")
	}
	prev := edges[0].Weight
	for _, e := range edges[1:] {
		if e.Weight > prev {
			t.Fatalf("edge weights not descending: %d after %d", e.Weight, prev)
		}
		prev = e.Weight
	}
	// The paper's Fig. 5(a): the first link is A3-B2 (weight 2).
	first := edges[0]
	names := map[string]bool{d.ModeName(first.A): true, d.ModeName(first.B): true}
	if first.Weight != 2 || !(names["A.3"] && names["B.2"] || names["B.2"] && names["C.3"]) {
		// A3-B2 and B2-C3 both have weight 2; either may be first under
		// deterministic tie-breaking, the paper picks A3-B2.
		t.Errorf("first edge = %s-%s (w=%d), want a weight-2 edge among {A3,B2,C3}",
			d.ModeName(first.A), d.ModeName(first.B), first.Weight)
	}
}

// enumerateSubsets returns the set of all non-empty subsets of all
// configurations of d, keyed canonically.
func enumerateSubsets(d *design.Design) map[string]bool {
	out := make(map[string]bool)
	for ci := range d.Configurations {
		modes := d.ConfigModes(ci)
		for mask := 1; mask < 1<<len(modes); mask++ {
			var refs []design.ModeRef
			for i, r := range modes {
				if mask&(1<<i) != 0 {
					refs = append(refs, r)
				}
			}
			out[modeset.New(refs...).Key()] = true
		}
	}
	return out
}

func TestPartitionsAreExactlyConfigSubsets(t *testing.T) {
	for _, d := range []*design.Design{
		design.PaperExample(), design.VideoReceiver(),
		design.VideoReceiverModified(), design.TwoModuleExample(),
		design.SingleModeExample(),
	} {
		parts, err := BasePartitions(connmat.New(d))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		want := enumerateSubsets(d)
		got := make(map[string]bool)
		for _, bp := range parts {
			got[bp.Set.Key()] = true
		}
		if len(got) != len(parts) {
			t.Errorf("%s: duplicate base partitions emitted", d.Name)
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing base partition %s", d.Name, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: spurious base partition %s", d.Name, k)
			}
		}
	}
}

func TestFrequencyWeightDefinition(t *testing.T) {
	// freq weight: node weight for singletons, min internal edge weight
	// otherwise — and always >= the whole-set support.
	for _, d := range []*design.Design{design.PaperExample(), design.VideoReceiver()} {
		m := connmat.New(d)
		parts, err := BasePartitions(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range parts {
			refs := bp.Set.Refs()
			want := minEdgeWeight(m, refs)
			if bp.FreqWeight != want {
				t.Errorf("%s: %s freq weight = %d, want %d", d.Name, bp.Label(d), bp.FreqWeight, want)
			}
			if sup := support(d, refs); bp.FreqWeight < sup {
				t.Errorf("%s: %s freq weight %d below support %d", d.Name, bp.Label(d), bp.FreqWeight, sup)
			}
			if bp.FreqWeight < 1 {
				t.Errorf("%s: %s has freq weight %d < 1", d.Name, bp.Label(d), bp.FreqWeight)
			}
		}
	}
}

// support counts the configurations that activate every mode of set.
func support(d *design.Design, set []design.ModeRef) int {
	n := 0
configs:
	for _, c := range d.Configurations {
		for _, r := range set {
			if c.Modes[r.Module] != r.Mode {
				continue configs
			}
		}
		n++
	}
	return n
}

func TestResourcesAreMemberSums(t *testing.T) {
	d := design.VideoReceiver()
	parts, err := BasePartitions(connmat.New(d))
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range parts {
		var want = bp.Resources.Sub(bp.Resources) // zero
		for _, r := range bp.Set.Refs() {
			want = want.Add(d.ModeResources(r))
		}
		if bp.Resources != want {
			t.Errorf("%s: resources %v, want %v", bp.Label(d), bp.Resources, want)
		}
	}
}

func TestConfigTooLargeRejected(t *testing.T) {
	// A configuration with more than MaxConfigModes active modes must be
	// rejected rather than attempted (2^k subset blow-up).
	d := &design.Design{Name: "huge"}
	n := MaxConfigModes + 1
	cfg := design.Configuration{Modes: make([]int, n)}
	for i := 0; i < n; i++ {
		d.Modules = append(d.Modules, &design.Module{
			Name:  string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Modes: []design.Mode{{Name: "1"}},
		})
		cfg.Modes[i] = 1
	}
	d.Configurations = []design.Configuration{cfg}
	_, err := BasePartitions(connmat.New(d))
	if err == nil {
		t.Fatal("BasePartitions accepted an oversized configuration")
	}
	if !strings.HasPrefix(err.Error(), "basepart: ") {
		t.Errorf("error %q does not name its package", err)
	}
}

func TestSingleModeExampleClusters(t *testing.T) {
	// §IV-D: single-mode modules with disjoint configurations produce the
	// two configuration cliques and no cross-configuration partitions.
	d := design.SingleModeExample()
	parts, err := BasePartitions(connmat.New(d))
	if err != nil {
		t.Fatal(err)
	}
	// Subsets: config0 (2 modes) -> 3, config1 (3 modes) -> 7; disjoint.
	if len(parts) != 10 {
		t.Errorf("partitions = %d, want 10", len(parts))
	}
}
