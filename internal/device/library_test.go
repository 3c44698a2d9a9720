package device

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"prpart/internal/resource"
)

func TestLibraryRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteLibrary(&b, Catalog()); err != nil {
		t.Fatal(err)
	}
	devs, err := LoadLibrary(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != len(Catalog()) {
		t.Fatalf("devices = %d, want %d", len(devs), len(Catalog()))
	}
	for i, d := range devs {
		want := Catalog()[i]
		if d.Name != want.Name || d.Capacity != want.Capacity || d.Rows != want.Rows {
			t.Errorf("device %d: %s %v/%d != %s %v/%d",
				i, d.Name, d.Capacity, d.Rows, want.Name, want.Capacity, want.Rows)
		}
		if len(d.Columns) == 0 {
			t.Errorf("%s: no column grid synthesised", d.Name)
		}
	}
}

func TestLoadLibraryOrdersAscending(t *testing.T) {
	const js = `[
	  {"name":"big","clb":9000,"bram":10,"dsp":10,"rows":8},
	  {"name":"small","clb":1000,"bram":4,"dsp":8,"rows":2}
	]`
	devs, err := LoadLibrary(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if devs[0].Name != "small" || devs[1].Name != "big" {
		t.Errorf("order wrong: %s, %s", devs[0].Name, devs[1].Name)
	}
}

func TestLoadLibraryErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":  `nope`,
		"empty":    `[]`,
		"no name":  `[{"clb":100,"bram":1,"dsp":1,"rows":1}]`,
		"dup":      `[{"name":"a","clb":100,"bram":1,"dsp":1,"rows":1},{"name":"a","clb":200,"bram":1,"dsp":1,"rows":1}]`,
		"bad cap":  `[{"name":"a","clb":0,"bram":1,"dsp":1,"rows":1}]`,
		"bad rows": `[{"name":"a","clb":100,"bram":1,"dsp":1,"rows":0}]`,
		"unknown":  `[{"name":"a","clb":100,"bram":1,"dsp":1,"rows":1,"zzz":5}]`,
		"neg bram": `[{"name":"a","clb":100,"bram":-1,"dsp":1,"rows":1}]`,
	}
	for name, js := range cases {
		if _, err := LoadLibrary(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSmallestIn(t *testing.T) {
	devs, err := LoadLibrary(strings.NewReader(`[
	  {"name":"small","clb":1000,"bram":4,"dsp":8,"rows":2},
	  {"name":"big","clb":9000,"bram":40,"dsp":40,"rows":8}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := SmallestIn(devs, resource.New(500, 2, 2))
	if err != nil || d.Name != "small" {
		t.Errorf("SmallestIn = %v, %v", d, err)
	}
	d, err = SmallestIn(devs, resource.New(5000, 2, 2))
	if err != nil || d.Name != "big" {
		t.Errorf("SmallestIn = %v, %v", d, err)
	}
	if _, err := SmallestIn(devs, resource.New(100000, 2, 2)); err == nil {
		t.Error("oversized requirement accepted")
	}
}

func TestLoadedLibraryGridRealisesCapacity(t *testing.T) {
	devs, err := LoadLibrary(strings.NewReader(`[
	  {"name":"x","clb":4321,"bram":37,"dsp":19,"rows":5}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	d := devs[0]
	var got resource.Vector
	for _, k := range d.Columns {
		got = got.Add(resource.Vector{}.Set(k, PrimitivesPerTile(k)*d.Rows))
	}
	if !d.Capacity.FitsIn(got) {
		t.Errorf("grid provides %v, capacity %v", got, d.Capacity)
	}
}

// WriteLibrary renders devices as a JSON library readable by LoadLibrary.
func WriteLibrary(w io.Writer, devices []*Device) error {
	entries := make([]jsonDevice, len(devices))
	for i, d := range devices {
		entries[i] = jsonDevice{
			Name: d.Name,
			CLB:  d.Capacity.CLB,
			BRAM: d.Capacity.BRAM,
			DSP:  d.Capacity.DSP,
			Rows: d.Rows,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}

// SmallestIn returns the first device in an ordered library that fits the
// requirement — the custom-library counterpart of Smallest.
func SmallestIn(library []*Device, req resource.Vector) (*Device, error) {
	for _, d := range library {
		if d.Fits(req) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("device: requirement %v exceeds every library device", req)
}
