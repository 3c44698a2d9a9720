// Package device models the Xilinx Virtex-5 FPGA architecture at the level
// of detail the partitioning algorithm needs: tile geometry, configuration
// frame counts per tile type (UG191), a catalog of devices spanning the
// family (DS100), and a row/column grid used by the floorplanner.
//
// The key facts, from the paper's §IV-B and the Virtex-5 configuration
// guide:
//
//   - Devices are divided into rows; resources are arranged in full-height
//     columns ("blocks"). A tile is one row high and one block wide and is
//     the smallest unit of partial reconfiguration.
//   - One CLB tile holds 20 CLBs, one DSP tile holds 8 DSP slices, and one
//     BRAM tile holds 4 BlockRAMs.
//   - A CLB tile spans 36 configuration frames, a DSP tile 28 frames and a
//     BRAM tile 30 frames.
//   - A frame is 41 32-bit words (1312 bits), the smallest addressable unit
//     of configuration memory.
package device

import "prpart/internal/resource"

// Architecture constants for the Virtex-5 family (UG191).
const (
	// CLBsPerTile is the number of CLBs in one CLB tile.
	CLBsPerTile = 20
	// DSPsPerTile is the number of DSP slices in one DSP tile.
	DSPsPerTile = 8
	// BRAMsPerTile is the number of BlockRAMs in one BRAM tile.
	BRAMsPerTile = 4

	// FramesPerCLBTile is the number of configuration frames spanned by
	// one CLB tile.
	FramesPerCLBTile = 36
	// FramesPerDSPTile is the number of configuration frames spanned by
	// one DSP tile.
	FramesPerDSPTile = 28
	// FramesPerBRAMTile is the number of configuration frames spanned by
	// one BRAM tile.
	FramesPerBRAMTile = 30

	// WordsPerFrame is the number of 32-bit words in one frame.
	WordsPerFrame = 41
	// BitsPerFrame is the number of bits in one frame.
	BitsPerFrame = WordsPerFrame * 32
)

// Tiles quantises a raw resource requirement into whole tiles per kind:
// the paper's eqs. (3)-(5). Partial tiles are always rounded up, because
// the vendor flow cannot share a tile between two reconfigurable regions
// without read-modify-write circuitry the paper explicitly avoids.
func Tiles(req resource.Vector) resource.Vector {
	return resource.Vector{
		CLB:  ceilDiv(req.CLB, CLBsPerTile),
		BRAM: ceilDiv(req.BRAM, BRAMsPerTile),
		DSP:  ceilDiv(req.DSP, DSPsPerTile),
	}
}

// TilesToPrimitives converts a tile-count vector back into primitive counts
// (the capacity actually reserved once a requirement is quantised).
func TilesToPrimitives(tiles resource.Vector) resource.Vector {
	return resource.Vector{
		CLB:  tiles.CLB * CLBsPerTile,
		BRAM: tiles.BRAM * BRAMsPerTile,
		DSP:  tiles.DSP * DSPsPerTile,
	}
}

// FramesForTiles returns the total number of configuration frames spanned
// by a tile-count vector: the paper's eq. (6), P_r = Σ_t W_t · R_rt.
func FramesForTiles(tiles resource.Vector) int {
	return tiles.CLB*FramesPerCLBTile +
		tiles.BRAM*FramesPerBRAMTile +
		tiles.DSP*FramesPerDSPTile
}

// Frames returns the number of configuration frames required to hold a raw
// resource requirement after tile quantisation. It composes eqs. (3)-(6).
func Frames(req resource.Vector) int {
	return FramesForTiles(Tiles(req))
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
