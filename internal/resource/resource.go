// Package resource defines the resource vectors used throughout the
// partitioner. A Vector counts the three reconfigurable primitive types
// found on Xilinx Virtex-era devices: configurable logic blocks (CLBs),
// BlockRAMs and DSP slices. All of the partitioning arithmetic — module
// utilisations, region sizing, device capacities and feasibility checks —
// is expressed in these units before being quantised to tiles and frames
// by the device model.
package resource

import "fmt"

// Kind identifies one of the three primitive resource types present in a
// reconfigurable tile.
type Kind int

const (
	// CLB counts configurable logic blocks. Following the paper's
	// convention (its Table II is labelled "Slices" but summed as "CLBs"
	// in Tables IV-V), CLB counts are used directly as the logic unit.
	CLB Kind = iota
	// BRAM counts BlockRAM primitives.
	BRAM
	// DSP counts DSP slices.
	DSP

	// NumKinds is the number of resource kinds.
	NumKinds
)

// Kinds lists all resource kinds in canonical order.
var Kinds = [NumKinds]Kind{CLB, BRAM, DSP}

// String returns the conventional short name of the resource kind.
func (k Kind) String() string {
	switch k {
	case CLB:
		return "CLB"
	case BRAM:
		return "BRAM"
	case DSP:
		return "DSP"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Vector is a count of each resource kind. The zero value is the empty
// vector and is ready to use.
type Vector struct {
	CLB  int
	BRAM int
	DSP  int
}

// New returns a vector with the given counts.
func New(clb, bram, dsp int) Vector {
	return Vector{CLB: clb, BRAM: bram, DSP: dsp}
}

// Get returns the count for kind k.
func (v Vector) Get(k Kind) int {
	switch k {
	case CLB:
		return v.CLB
	case BRAM:
		return v.BRAM
	case DSP:
		return v.DSP
	}
	panic(fmt.Sprintf("resource: invalid kind %d", int(k)))
}

// Set returns a copy of v with the count for kind k replaced by n.
func (v Vector) Set(k Kind, n int) Vector {
	switch k {
	case CLB:
		v.CLB = n
	case BRAM:
		v.BRAM = n
	case DSP:
		v.DSP = n
	default:
		panic(fmt.Sprintf("resource: invalid kind %d", int(k)))
	}
	return v
}

// Add returns the element-wise sum v + u.
func (v Vector) Add(u Vector) Vector {
	return Vector{v.CLB + u.CLB, v.BRAM + u.BRAM, v.DSP + u.DSP}
}

// Sub returns the element-wise difference v - u. Counts may go negative;
// callers that need clamping should use SubFloor.
func (v Vector) Sub(u Vector) Vector {
	return Vector{v.CLB - u.CLB, v.BRAM - u.BRAM, v.DSP - u.DSP}
}

// SubFloor returns the element-wise difference v - u with each component
// clamped at zero.
func (v Vector) SubFloor(u Vector) Vector {
	return Vector{
		max(0, v.CLB-u.CLB),
		max(0, v.BRAM-u.BRAM),
		max(0, v.DSP-u.DSP),
	}
}

// Max returns the element-wise maximum of v and u. This implements the
// paper's eq. (2): the area of a region holding several mutually exclusive
// base partitions is, per resource type, the largest requirement among them.
func (v Vector) Max(u Vector) Vector {
	return Vector{max(v.CLB, u.CLB), max(v.BRAM, u.BRAM), max(v.DSP, u.DSP)}
}

// Scale returns v with every component multiplied by n.
func (v Vector) Scale(n int) Vector {
	return Vector{v.CLB * n, v.BRAM * n, v.DSP * n}
}

// FitsIn reports whether v fits within capacity u in every component.
func (v Vector) FitsIn(u Vector) bool {
	return v.CLB <= u.CLB && v.BRAM <= u.BRAM && v.DSP <= u.DSP
}

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool {
	return v == Vector{}
}

// IsNonNegative reports whether every component of v is >= 0.
func (v Vector) IsNonNegative() bool {
	return v.CLB >= 0 && v.BRAM >= 0 && v.DSP >= 0
}

// Total returns the sum of all components. It is only meaningful as a crude
// tie-breaking magnitude; real area comparisons must go through the frame
// model in internal/device.
func (v Vector) Total() int {
	return v.CLB + v.BRAM + v.DSP
}

// String renders the vector as "{clb CLB, bram BRAM, dsp DSP}".
func (v Vector) String() string {
	return fmt.Sprintf("{%d CLB, %d BRAM, %d DSP}", v.CLB, v.BRAM, v.DSP)
}

// Clamp maps every component of v into [0, limit) by taking the absolute
// value modulo limit. It is used to normalise arbitrary vectors (e.g. from
// property-test generators) into realistic utilisation ranges.
func Clamp(v Vector, limit int) Vector {
	c := func(n int) int {
		if n < 0 {
			n = -n
		}
		if n < 0 { // math.MinInt negation overflow
			n = 0
		}
		return n % limit
	}
	return Vector{c(v.CLB), c(v.BRAM), c(v.DSP)}
}
