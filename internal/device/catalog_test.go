package device

import (
	"testing"

	"prpart/internal/resource"
)

func TestCatalogOrderedAscending(t *testing.T) {
	all := Catalog()
	if len(all) != 10 {
		t.Fatalf("catalog size = %d, want 10", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Capacity.CLB < all[i-1].Capacity.CLB {
			t.Errorf("catalog not ascending: %s (%d) after %s (%d)",
				all[i].Name, all[i].Capacity.CLB, all[i-1].Name, all[i-1].Capacity.CLB)
		}
	}
}

func TestSweepCatalogExcludesFX70T(t *testing.T) {
	sweep := SweepCatalog()
	if len(sweep) != 9 {
		t.Fatalf("sweep catalog size = %d, want 9", len(sweep))
	}
	for _, d := range sweep {
		if d.Name == "XC5VFX70T" {
			t.Error("sweep catalog must exclude the case-study FX70T")
		}
	}
	// Paper's x-axis order, smallest first.
	want := []string{
		"XC5VLX20T", "XC5VLX30", "XC5VFX30T", "XC5VSX35T", "XC5VFX50T",
		"XC5VSX70T", "XC5VFX95T", "XC5VFX130T", "XC5VFX200T",
	}
	for i, d := range sweep {
		if d.Name != want[i] {
			t.Errorf("sweep[%d] = %s, want %s", i, d.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("XC5VFX70T")
	if err != nil || d.Name != "XC5VFX70T" {
		t.Fatalf("ByName full = %v, %v", d, err)
	}
	d, err = ByName("FX70T")
	if err != nil || d.Name != "XC5VFX70T" {
		t.Fatalf("ByName short = %v, %v", d, err)
	}
	if _, err = ByName("XC7Z020"); err == nil {
		t.Fatal("ByName should reject unknown devices")
	}
}

func TestSmallest(t *testing.T) {
	d, err := Smallest(resource.New(100, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "XC5VLX20T" {
		t.Errorf("Smallest(tiny) = %s, want XC5VLX20T", d.Name)
	}
	// A DSP-heavy requirement must skip past the LX devices.
	d, err = Smallest(resource.New(100, 4, 150))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "XC5VSX35T" {
		t.Errorf("Smallest(dsp-heavy) = %s, want XC5VSX35T", d.Name)
	}
	if _, err = Smallest(resource.New(1_000_000, 0, 0)); err == nil {
		t.Error("Smallest(huge) should fail")
	}
}

func TestNextLarger(t *testing.T) {
	d, _ := ByName("XC5VLX20T")
	n, err := NextLarger(d)
	if err != nil || n.Name != "XC5VLX30" {
		t.Fatalf("NextLarger(LX20T) = %v, %v", n, err)
	}
	last := Catalog()[len(Catalog())-1]
	if _, err := NextLarger(last); err == nil {
		t.Error("NextLarger(largest) should fail")
	}
	if _, err := NextLarger(&Device{Name: "bogus"}); err == nil {
		t.Error("NextLarger(unknown) should fail")
	}
}

func TestDeviceFitsUsesTileQuantisation(t *testing.T) {
	d := &Device{Name: "toy", Capacity: resource.New(40, 8, 16), Rows: 1}
	if !d.Fits(resource.New(40, 8, 16)) {
		t.Error("exact fit rejected")
	}
	// 21 CLBs quantise to 2 tiles = 40 CLBs: still fits.
	if !d.Fits(resource.New(21, 0, 0)) {
		t.Error("2-tile requirement rejected")
	}
	// 41 CLBs quantise to 3 tiles = 60 CLBs: must not fit.
	if d.Fits(resource.New(41, 0, 0)) {
		t.Error("3-tile requirement accepted on 2-tile device")
	}
}

func TestGridRealisesCapacity(t *testing.T) {
	// Every catalog device's column grid must provide at least its stated
	// capacity (rows * per-tile primitives summed over columns).
	for _, d := range Catalog() {
		var got resource.Vector
		for _, k := range d.Columns {
			per := PrimitivesPerTile(k) * d.Rows
			got = got.Add(resource.Vector{}.Set(k, per))
		}
		if !d.Capacity.FitsIn(got) {
			t.Errorf("%s: grid provides %v, stated capacity %v", d.Name, got, d.Capacity)
		}
	}
}

func TestTileCapacity(t *testing.T) {
	d, _ := ByName("FX70T")
	tc := d.TileCapacity()
	if tc.CLB != d.Capacity.CLB/20 || tc.BRAM != d.Capacity.BRAM/4 || tc.DSP != d.Capacity.DSP/8 {
		t.Errorf("TileCapacity wrong: %v for %v", tc, d.Capacity)
	}
}

// TileCapacity returns the device capacity expressed in whole tiles.
func (d *Device) TileCapacity() resource.Vector {
	return resource.Vector{
		CLB:  d.Capacity.CLB / CLBsPerTile,
		BRAM: d.Capacity.BRAM / BRAMsPerTile,
		DSP:  d.Capacity.DSP / DSPsPerTile,
	}
}
