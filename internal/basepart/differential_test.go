package basepart_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// assertMatchesOracle checks that BasePartitions returns the partitions
// of the paper's edge-insertion clustering, each with the same frequency
// weight and resources, and that cover.Order turns both slices into the
// same covering order.
func assertMatchesOracle(t *testing.T, d *design.Design) {
	t.Helper()
	m := connmat.New(d)
	got, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	want := basepart.EdgeInsertion(m)
	if len(got) != len(want) {
		t.Fatalf("%s: %d base partitions, oracle %d", d.Name, len(got), len(want))
	}
	byKey := make(map[string]basepart.BasePartition, len(want))
	for _, bp := range want {
		byKey[bp.Set.Key()] = bp
	}
	for _, bp := range got {
		w, ok := byKey[bp.Set.Key()]
		if !ok {
			t.Fatalf("%s: %s is not an oracle partition", d.Name, bp.Label(d))
		}
		if bp.FreqWeight != w.FreqWeight || bp.Resources != w.Resources {
			t.Fatalf("%s: %s has weight %d, resources %v; oracle %d, %v",
				d.Name, bp.Label(d), bp.FreqWeight, bp.Resources, w.FreqWeight, w.Resources)
		}
		delete(byKey, bp.Set.Key())
	}
	if len(byKey) != 0 {
		t.Fatalf("%s: %d oracle partitions missing (duplicates emitted)", d.Name, len(byKey))
	}
	if !reflect.DeepEqual(cover.Order(got), cover.Order(want)) {
		t.Fatalf("%s: cover.Order differs between BasePartitions and the oracle", d.Name)
	}
}

func TestDifferentialBasePartitionsVsEdgeInsertion(t *testing.T) {
	designs := []*design.Design{
		design.PaperExample(), design.VideoReceiver(),
		design.VideoReceiverModified(), design.TwoModuleExample(),
		design.SingleModeExample(),
	}
	for _, seed := range []int64{1, 7} {
		designs = append(designs, synthetic.Generate(seed, 300)...)
	}
	for _, d := range designs {
		assertMatchesOracle(t, d)
	}
}

// randomDesign draws a design the synthetic generator never produces:
// modules absent (mode 0) from configurations at random, configurations
// repeated verbatim, and up to maxActive active modes per configuration.
func randomDesign(rng *rand.Rand, name string, maxActive int) *design.Design {
	d := &design.Design{Name: name}
	nMod := 1 + rng.Intn(maxActive+2)
	for i := 0; i < nMod; i++ {
		mod := &design.Module{Name: fmt.Sprintf("M%d", i)}
		for k := 0; k < 1+rng.Intn(4); k++ {
			mod.Modes = append(mod.Modes, design.Mode{
				Name:      fmt.Sprintf("%d", k+1),
				Resources: resource.New(1+rng.Intn(500), rng.Intn(8), rng.Intn(8)),
			})
		}
		d.Modules = append(d.Modules, mod)
	}
	for c := 0; c < 1+rng.Intn(6); c++ {
		if c > 0 && rng.Intn(4) == 0 {
			prev := d.Configurations[rng.Intn(c)].Modes
			d.Configurations = append(d.Configurations,
				design.Configuration{Modes: append([]int(nil), prev...)})
			continue
		}
		modes := make([]int, nMod)
		active := 0
		for _, mi := range rng.Perm(nMod) {
			if active < maxActive && rng.Intn(3) != 0 {
				modes[mi] = 1 + rng.Intn(len(d.Modules[mi].Modes))
				active++
			}
		}
		d.Configurations = append(d.Configurations, design.Configuration{Modes: modes})
	}
	return d
}

func TestPropertyBasePartitionsRandomDesigns(t *testing.T) {
	const maxActive = 12
	rng := rand.New(rand.NewSource(19))
	widest, absent, repeated := 0, 0, 0
	for i := 0; i < 100; i++ {
		d := randomDesign(rng, fmt.Sprintf("random-%d", i), maxActive)
		seen := make(map[string]bool)
		for ci, c := range d.Configurations {
			k := len(d.ConfigModes(ci))
			widest = max(widest, k)
			absent += len(c.Modes) - k
			if key := fmt.Sprint(c.Modes); seen[key] {
				repeated++
			} else {
				seen[key] = true
			}
		}
		assertMatchesOracle(t, d)
	}
	// The corpus must exercise what it is drawn for.
	if widest != maxActive || absent == 0 || repeated == 0 {
		t.Fatalf("corpus coverage: widest configuration %d (want %d), %d absences, %d repeated configurations",
			widest, maxActive, absent, repeated)
	}
}
