package device

import (
	"fmt"
	"sort"

	"prpart/internal/resource"
)

// Device describes one member of the FPGA family: its total reconfigurable
// resource capacity and its physical grid (rows of full-height columns),
// which the floorplanner uses.
//
// Capacities follow the paper's unit convention (see DESIGN.md §2 note 9):
// the CLB figure is the logic capacity in the same unit as module
// utilisations. Values approximate DS100; the catalog's role in the
// evaluation is only to decide which device a design lands on, so the
// ordering and rough magnitudes are what matter.
type Device struct {
	// Name is the family member name, e.g. "XC5VFX70T".
	Name string
	// Capacity is the total reconfigurable resource budget of the device.
	Capacity resource.Vector
	// Rows is the number of configuration rows (a frame spans one row).
	Rows int
	// Columns is the left-to-right sequence of column (block) types.
	Columns []resource.Kind
}

// Fits reports whether a raw requirement fits the device capacity after
// tile quantisation.
func (d *Device) Fits(req resource.Vector) bool {
	return TilesToPrimitives(Tiles(req)).FitsIn(d.Capacity)
}

// String returns the device name.
func (d *Device) String() string { return d.Name }

// catalog lists the Virtex-5 devices used by the paper's evaluation
// (Figs. 7-8 x-axis, smallest to largest) plus the FX70T used by the case
// study. Capacities are approximations of DS100 in the paper's units;
// column mixes are synthesised to match the capacity with the family's
// 20-CLB/4-BRAM/8-DSP tile heights.
var catalog = []*Device{
	dev("XC5VLX20T", 3120, 26, 24, 6),
	dev("XC5VLX30", 4800, 32, 32, 8),
	dev("XC5VFX30T", 5120, 68, 64, 8),
	dev("XC5VSX35T", 5440, 84, 192, 8),
	dev("XC5VFX50T", 8160, 132, 128, 12),
	dev("XC5VSX70T", 11200, 150, 288, 16),
	dev("XC5VFX70T", 11200, 148, 128, 16),
	dev("XC5VFX95T", 14720, 244, 384, 20),
	dev("XC5VFX130T", 20480, 298, 448, 24),
	dev("XC5VFX200T", 30720, 456, 512, 30),
}

// dev builds a Device whose column grid realises (at least) the stated
// capacity for the given number of rows.
func dev(name string, clb, bram, dsp, rows int) *Device {
	cols := makeColumns(resource.New(clb, bram, dsp), rows)
	return &Device{
		Name:     name,
		Capacity: resource.New(clb, bram, dsp),
		Rows:     rows,
		Columns:  cols,
	}
}

// makeColumns synthesises a plausible column ordering: BRAM and DSP
// columns interleaved among CLB columns, as on real devices. Non-zero
// special resources get at least a few columns each so that one large
// region cannot monopolise a resource type and leave sibling regions
// unplaceable (real devices likewise spread BRAM/DSP across the die).
func makeColumns(cap resource.Vector, rows int) []resource.Kind {
	nCLB := ceilDiv(cap.CLB, rows*CLBsPerTile)
	nBRAM := ceilDiv(cap.BRAM, rows*BRAMsPerTile)
	nDSP := ceilDiv(cap.DSP, rows*DSPsPerTile)
	if nBRAM > 0 && nBRAM < 4 {
		nBRAM = 4
	}
	if nDSP > 0 && nDSP < 3 {
		nDSP = 3
	}
	total := nCLB + nBRAM + nDSP
	cols := make([]resource.Kind, 0, total)
	// Distribute special columns evenly through the CLB fabric.
	special := make([]resource.Kind, 0, nBRAM+nDSP)
	for i := 0; i < nBRAM; i++ {
		special = append(special, resource.BRAM)
	}
	for i := 0; i < nDSP; i++ {
		special = append(special, resource.DSP)
	}
	if len(special) == 0 {
		for i := 0; i < nCLB; i++ {
			cols = append(cols, resource.CLB)
		}
		return cols
	}
	gap := nCLB / (len(special) + 1)
	si := 0
	for i := 0; i < nCLB; i++ {
		cols = append(cols, resource.CLB)
		if gap > 0 && (i+1)%gap == 0 && si < len(special) {
			cols = append(cols, special[si])
			si++
		}
	}
	for ; si < len(special); si++ {
		cols = append(cols, special[si])
	}
	return cols
}

// Catalog returns the devices known to the library, ordered by logic
// capacity ascending (the "size" ordering used when hunting for the
// smallest feasible device).
func Catalog() []*Device {
	out := make([]*Device, len(catalog))
	copy(out, catalog)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Capacity.CLB != out[j].Capacity.CLB {
			return out[i].Capacity.CLB < out[j].Capacity.CLB
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SweepCatalog returns the nine devices of the paper's Figs. 7-8 sweep
// (the full catalog minus the case-study FX70T), smallest first.
func SweepCatalog() []*Device {
	all := Catalog()
	out := all[:0:0]
	for _, d := range all {
		if d.Name != "XC5VFX70T" {
			out = append(out, d)
		}
	}
	return out
}

// ByName returns the named device, or an error listing valid names.
// Lookup accepts either the full part name ("XC5VFX70T") or the short
// suffix used in the paper's figures ("FX70T").
func ByName(name string) (*Device, error) {
	for _, d := range catalog {
		if d.Name == name || d.Name == "XC5V"+name {
			return d, nil
		}
	}
	names := make([]string, len(catalog))
	for i, d := range catalog {
		names[i] = d.Name
	}
	return nil, fmt.Errorf("device: unknown device %q (known: %v)", name, names)
}

// Smallest returns the smallest catalog device (by the Catalog ordering)
// whose capacity fits the given requirement, or an error when even the
// largest family member is too small.
func Smallest(req resource.Vector) (*Device, error) {
	for _, d := range Catalog() {
		if d.Fits(req) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("device: requirement %v exceeds the largest catalog device", req)
}

// NextLarger returns the next device after d in the Catalog ordering, or
// an error when d is already the largest.
func NextLarger(d *Device) (*Device, error) {
	all := Catalog()
	for i, c := range all {
		if c.Name == d.Name {
			if i+1 < len(all) {
				return all[i+1], nil
			}
			return nil, fmt.Errorf("device: %s is the largest catalog device", d.Name)
		}
	}
	return nil, fmt.Errorf("device: %s not in catalog", d.Name)
}
