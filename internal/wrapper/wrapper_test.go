package wrapper

import (
	"strings"
	"sync"
	"testing"

	"prpart/internal/design"
	"prpart/internal/netlist"
	"prpart/internal/partition"
)

var (
	cachedResult *partition.Result
	cachedErr    error
	cacheOnce    sync.Once
)

func caseStudyScheme(t *testing.T) *partition.Result {
	t.Helper()
	cacheOnce.Do(func() {
		cachedResult, cachedErr = partition.Solve(design.VideoReceiver(),
			partition.Options{Budget: design.CaseStudyBudget()})
	})
	if cachedErr != nil {
		t.Fatal(cachedErr)
	}
	return cachedResult
}

func TestGenerateCaseStudy(t *testing.T) {
	res := caseStudyScheme(t)
	set, err := Generate(res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Regions) != len(res.Scheme.Regions) {
		t.Fatalf("wrapper regions = %d, want %d", len(set.Regions), len(res.Scheme.Regions))
	}
	for ri, region := range set.Regions {
		if len(region) != len(res.Scheme.Regions[ri].Parts) {
			t.Errorf("region %d: %d wrappers for %d parts", ri, len(region), len(res.Scheme.Regions[ri].Parts))
		}
	}
	if len(res.Scheme.Static) > 0 && set.Static == nil {
		t.Error("static parts present but no static wrapper")
	}
}

func TestWrapperStructure(t *testing.T) {
	res := caseStudyScheme(t)
	set, err := Generate(res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	for ri, region := range set.Regions {
		for pi, w := range region {
			part := res.Scheme.Regions[ri].Parts[pi]
			subs := w.Count(netlist.SubModule)
			if subs != part.Set.Len() {
				t.Errorf("prr%d_p%d: %d submodules for %d modes", ri+1, pi, subs, part.Set.Len())
			}
			if part.Set.Len() > 1 && w.Count(netlist.LUT) == 0 {
				t.Errorf("prr%d_p%d: multi-mode wrapper has no mux logic", ri+1, pi)
			}
			if w.Port("sel") == nil || w.Port("m_data") == nil {
				t.Errorf("prr%d_p%d: missing standard ports", ri+1, pi)
			}
		}
	}
}

func TestNetlistValidates(t *testing.T) {
	res := caseStudyScheme(t)
	set, err := Generate(res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := set.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if nd.Top != "pr_top" {
		t.Errorf("top = %q", nd.Top)
	}
}

func TestVerilogOutput(t *testing.T) {
	res := caseStudyScheme(t)
	set, err := Generate(res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	files := set.Verilog()
	if len(files) == 0 {
		t.Fatal("no Verilog emitted")
	}
	found := false
	for name, src := range files {
		if !strings.Contains(src, "module "+name) {
			t.Errorf("file %s does not define its module", name)
		}
		if strings.HasPrefix(name, "prr") {
			found = true
		}
	}
	if !found {
		t.Error("no region wrapper files emitted")
	}
}

func TestGenerateRejectsInvalidScheme(t *testing.T) {
	res := caseStudyScheme(t)
	bad := *res.Scheme
	bad.Active = bad.Active[:1]
	if _, err := Generate(&bad); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestSelWidth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		if got := selWidth(n); got != want {
			t.Errorf("selWidth(%d) = %d, want %d", n, got, want)
		}
	}
}
