package device

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// jsonDevice is the on-disk device-library entry: the resource counts the
// paper's flow reads from "a device library that details the number of
// CLBs, Block RAMs and DSPs for various families and devices".
type jsonDevice struct {
	Name string `json:"name"`
	CLB  int    `json:"clb"`
	BRAM int    `json:"bram"`
	DSP  int    `json:"dsp"`
	Rows int    `json:"rows"`
}

// LoadLibrary reads a custom device library (JSON array) and returns the
// devices ordered by logic capacity ascending. Column grids are
// synthesised from the capacities the same way the built-in catalog's
// are.
func LoadLibrary(r io.Reader) ([]*Device, error) {
	var entries []jsonDevice
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("device: decoding library: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("device: library is empty")
	}
	seen := make(map[string]bool)
	out := make([]*Device, 0, len(entries))
	for i, e := range entries {
		switch {
		case e.Name == "":
			return nil, fmt.Errorf("device: library entry %d has no name", i)
		case seen[e.Name]:
			return nil, fmt.Errorf("device: duplicate device %q", e.Name)
		case e.CLB <= 0 || e.BRAM < 0 || e.DSP < 0:
			return nil, fmt.Errorf("device: %q has invalid capacities %d/%d/%d", e.Name, e.CLB, e.BRAM, e.DSP)
		case e.Rows <= 0:
			return nil, fmt.Errorf("device: %q has invalid row count %d", e.Name, e.Rows)
		}
		seen[e.Name] = true
		out = append(out, dev(e.Name, e.CLB, e.BRAM, e.DSP, e.Rows))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Capacity.CLB != out[j].Capacity.CLB {
			return out[i].Capacity.CLB < out[j].Capacity.CLB
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
