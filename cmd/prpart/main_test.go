package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/serve"
	"prpart/internal/spec"
)

func writeDesignXML(t *testing.T, d *design.Design, con spec.Constraints) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := spec.WriteDesign(f, d, con); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeDesignJSON(t *testing.T, d *design.Design) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := design.EncodeJSON(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunXMLWithConstraints(t *testing.T) {
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{
		Device: "FX70T",
		Budget: design.CaseStudyBudget(),
	})
	var out strings.Builder
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"XC5VFX70T", "PRR1", "baseline modular"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONInputAndFlagsOverride(t *testing.T) {
	path := writeDesignJSON(t, design.VideoReceiver())
	var out strings.Builder
	err := run([]string{"-in", path, "-device", "FX70T", "-budget", "6800,64,150"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "XC5VFX70T") {
		t.Errorf("device flag ignored:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{
		Device: "FX70T", Budget: design.CaseStudyBudget(),
	})
	var out strings.Builder
	if err := run([]string{"-in", path, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var jo serve.ResultJSON
	if err := json.Unmarshal([]byte(out.String()), &jo); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out.String())
	}
	if jo.Device != "XC5VFX70T" || jo.Total == 0 || len(jo.Regions) == 0 {
		t.Errorf("JSON content wrong: %+v", jo)
	}
	if jo.Baselines["modular"] <= jo.Total {
		t.Errorf("modular baseline %d should exceed proposed %d", jo.Baselines["modular"], jo.Total)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, &strings.Builder{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.xml"}, &strings.Builder{}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "x.txt")
	os.WriteFile(bad, []byte("hi"), 0o644)
	if err := run([]string{"-in", bad}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported input extension") {
		t.Errorf("bad extension: %v", err)
	}
	path := writeDesignXML(t, design.PaperExample(), spec.Constraints{})
	if err := run([]string{"-in", path, "-budget", "nope"}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "bad -budget") {
		t.Errorf("bad budget: %v", err)
	}
}

func TestRunAblationFlags(t *testing.T) {
	path := writeDesignXML(t, design.PaperExample(), spec.Constraints{})
	var out strings.Builder
	if err := run([]string{"-in", path, "-no-static", "-greedy"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 static parts") &&
		strings.Contains(out.String(), "static:") {
		t.Errorf("no-static flag ignored:\n%s", out.String())
	}
}

func TestRunPinFlag(t *testing.T) {
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{
		Device: "FX70T", Budget: design.CaseStudyBudget(),
	})
	var out strings.Builder
	if err := run([]string{"-in", path, "-pin", "M.BPSK"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "static: M.BPSK") &&
		!strings.Contains(out.String(), "static: {M.BPSK}") {
		t.Errorf("pinned mode not reported static:\n%s", out.String())
	}
	if err := run([]string{"-in", path, "-pin", "Nope.Mode"}, &out); err == nil {
		t.Error("unknown pin accepted")
	}
}

func TestRunDevicesFlag(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "lib.json")
	os.WriteFile(lib, []byte(`[{"name":"HUGE","clb":30000,"bram":400,"dsp":400,"rows":16}]`), 0o644)
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{})
	var out strings.Builder
	if err := run([]string{"-in", path, "-devices", lib}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HUGE") {
		t.Errorf("custom library ignored:\n%s", out.String())
	}
	if err := run([]string{"-in", path, "-devices", "/nope.json"}, &out); err == nil {
		t.Error("missing library accepted")
	}
}

func TestRunObsFlags(t *testing.T) {
	path := writeDesignXML(t, design.VideoReceiver(), spec.Constraints{
		Device: "FX70T", Budget: design.CaseStudyBudget(),
	})
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	prof := filepath.Join(dir, "cpu.pprof")
	var out strings.Builder
	if err := run([]string{"-in", path, "-trace", trace, "-pprof", prof, "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"search.done"`) {
		t.Errorf("trace file has no search.done event:\n%s", tb)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("pprof file missing or empty: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "-- metrics --") || !strings.Contains(s, "partition.states") {
		t.Errorf("metrics dump missing from output:\n%s", s)
	}
}
