package device

import (
	"fmt"
	"testing"
	"testing/quick"

	"prpart/internal/resource"
)

func TestArchitectureConstants(t *testing.T) {
	// These are the UG191 numbers quoted verbatim in the paper's §IV-B.
	if CLBsPerTile != 20 || DSPsPerTile != 8 || BRAMsPerTile != 4 {
		t.Fatalf("tile primitive counts wrong: %d/%d/%d", CLBsPerTile, DSPsPerTile, BRAMsPerTile)
	}
	if FramesPerCLBTile != 36 || FramesPerDSPTile != 28 || FramesPerBRAMTile != 30 {
		t.Fatalf("frames per tile wrong: %d/%d/%d", FramesPerCLBTile, FramesPerDSPTile, FramesPerBRAMTile)
	}
	if BitsPerFrame != 1312 {
		t.Fatalf("BitsPerFrame = %d, want 1312", BitsPerFrame)
	}
}

func TestPrimitivesAndFramesPerTile(t *testing.T) {
	for _, k := range resource.Kinds {
		if PrimitivesPerTile(k) <= 0 {
			t.Errorf("PrimitivesPerTile(%v) <= 0", k)
		}
		if FramesPerTile(k) <= 0 {
			t.Errorf("FramesPerTile(%v) <= 0", k)
		}
	}
}

func TestPrimitivesPerTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid kind")
		}
	}()
	PrimitivesPerTile(resource.Kind(77))
}

func TestFramesPerTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid kind")
		}
	}()
	FramesPerTile(resource.Kind(77))
}

func TestTilesQuantisation(t *testing.T) {
	cases := []struct {
		req  resource.Vector
		want resource.Vector
	}{
		{resource.New(0, 0, 0), resource.New(0, 0, 0)},
		{resource.New(1, 1, 1), resource.New(1, 1, 1)},
		{resource.New(20, 4, 8), resource.New(1, 1, 1)},
		{resource.New(21, 5, 9), resource.New(2, 2, 2)},
		// Case-study matched filter mode 1: 818 CLB, 0 BRAM, 28 DSP.
		{resource.New(818, 0, 28), resource.New(41, 0, 4)},
		// Negative components clamp to zero tiles.
		{resource.New(-5, -1, -9), resource.New(0, 0, 0)},
	}
	for _, c := range cases {
		if got := Tiles(c.req); got != c.want {
			t.Errorf("Tiles(%v) = %v, want %v", c.req, got, c.want)
		}
	}
}

func TestFrames(t *testing.T) {
	// 41 CLB tiles, 4 DSP tiles: 41*36 + 4*28 = 1476 + 112 = 1588.
	if got := Frames(resource.New(818, 0, 28)); got != 1588 {
		t.Errorf("Frames(818,0,28) = %d, want 1588", got)
	}
	// One of each tile: 36 + 30 + 28 = 94.
	if got := Frames(resource.New(1, 1, 1)); got != 94 {
		t.Errorf("Frames(1,1,1) = %d, want 94", got)
	}
	if got := Frames(resource.Vector{}); got != 0 {
		t.Errorf("Frames(zero) = %d, want 0", got)
	}
}

func TestFrameBytes(t *testing.T) {
	if got := FrameBytes(1); got != 164 {
		t.Errorf("FrameBytes(1) = %d, want 164 (41 words * 4 bytes)", got)
	}
	if got := FrameBytes(0); got != 0 {
		t.Errorf("FrameBytes(0) = %d, want 0", got)
	}
}

func TestTilesToPrimitivesRoundTrip(t *testing.T) {
	// Quantising then converting back always covers the request.
	f := func(v resource.Vector) bool {
		v = resource.Clamp(v, 1<<20)
		return v.FitsIn(TilesToPrimitives(Tiles(v)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTilesMonotone(t *testing.T) {
	// More resources never need fewer tiles.
	f := func(a, b resource.Vector) bool {
		a = resource.Clamp(a, 1<<20)
		b = resource.Clamp(b, 1<<20)
		sum := a.Add(b)
		return Tiles(a).FitsIn(Tiles(sum)) && Frames(a) <= Frames(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFramesSubadditive(t *testing.T) {
	// Sharing a region is never worse in frames than separate regions:
	// Frames(max(a,b)) <= Frames(a) + Frames(b).
	f := func(a, b resource.Vector) bool {
		a = resource.Clamp(a, 1<<20)
		b = resource.Clamp(b, 1<<20)
		return Frames(a.Max(b)) <= Frames(a)+Frames(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FramesPerTile returns the number of configuration frames spanned by one
// tile of kind k. This is W_t in the paper's eq. (6).
func FramesPerTile(k resource.Kind) int {
	switch k {
	case resource.CLB:
		return FramesPerCLBTile
	case resource.BRAM:
		return FramesPerBRAMTile
	case resource.DSP:
		return FramesPerDSPTile
	}
	panic(fmt.Sprintf("device: invalid kind %d", int(k)))
}

// FrameBytes returns the partial-bitstream payload size in bytes for a
// given number of frames.
func FrameBytes(frames int) int {
	return frames * WordsPerFrame * 4
}

// PrimitivesPerTile returns how many primitives of kind k fit in one tile
// of that kind.
func PrimitivesPerTile(k resource.Kind) int {
	switch k {
	case resource.CLB:
		return CLBsPerTile
	case resource.BRAM:
		return BRAMsPerTile
	case resource.DSP:
		return DSPsPerTile
	}
	panic(fmt.Sprintf("device: invalid kind %d", int(k)))
}
