package icap

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prpart/internal/bitstream"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/floorplan"
	"prpart/internal/partition"
)

var (
	once sync.Once
	set  *bitstream.Set
	res  *partition.Result
	plan *floorplan.Plan
	serr error
)

func bitstreams(t *testing.T) *bitstream.Set {
	t.Helper()
	once.Do(func() {
		res, serr = partition.Solve(design.VideoReceiver(),
			partition.Options{Budget: design.CaseStudyBudget()})
		if serr != nil {
			return
		}
		dev, err := device.ByName("FX70T")
		if err != nil {
			serr = err
			return
		}
		plan, serr = floorplan.Place(res.Scheme, dev)
		if serr != nil {
			return
		}
		set, serr = bitstream.Assemble(res.Scheme, plan)
	})
	if serr != nil {
		t.Fatal(serr)
	}
	return set
}

// planOf returns the floorplan behind the shared bitstream fixture.
func planOf(t *testing.T) *floorplan.Plan {
	t.Helper()
	bitstreams(t)
	return plan
}

func TestLoadWritesFrames(t *testing.T) {
	set := bitstreams(t)
	p := New(32, 100_000_000)
	bs := set.PerRegion[0][0]
	d, err := p.Load(bs)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("zero transfer time")
	}
	if p.Memory().FrameCount() != bs.Frames {
		t.Errorf("frames in memory = %d, want %d", p.Memory().FrameCount(), bs.Frames)
	}
	st := p.Stats()
	if st.Loads != 1 || st.Frames != bs.Frames || st.Busy != d {
		t.Errorf("stats %+v inconsistent", st)
	}
	// The frame content must be retrievable and match the payload.
	f0 := p.Memory().ReadFrame(bs.Addr, 0)
	if f0 == nil || f0[0] != bs.Words[6] {
		t.Error("frame 0 content mismatch")
	}
	if p.Memory().ReadFrame(bitstream.FAR{Row: 99, Major: 99}, 0) != nil {
		t.Error("unwritten frame should read nil")
	}
}

func TestTransferTimeScalesWithWidth(t *testing.T) {
	bs := bitstreams(t).PerRegion[0][0]
	wide := New(32, 100_000_000)
	narrow := New(8, 100_000_000)
	dw, err := wide.Load(bs)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := narrow.Load(bs)
	if err != nil {
		t.Fatal(err)
	}
	// The 8-bit port clocks 4x the cycles; overhead makes it slightly
	// less than exactly 4x.
	if dn <= 3*dw {
		t.Errorf("8-bit port %v not ~4x slower than 32-bit %v", dn, dw)
	}
}

func TestFrameTimeProportionality(t *testing.T) {
	// eq. (9): region configuration time proportional to frames.
	p := New(32, 100_000_000)
	t1 := p.FrameTime(100)
	t2 := p.FrameTime(200)
	overhead := p.FrameTime(0)
	if (t2 - overhead) != 2*(t1-overhead) {
		t.Errorf("frame time not linear: f(100)=%v f(200)=%v overhead=%v", t1, t2, overhead)
	}
}

func TestDefaults(t *testing.T) {
	p := New(0, 0)
	if p.WidthBits != 32 || p.ClockHz != 100_000_000 {
		t.Errorf("defaults: %d bits @ %d Hz", p.WidthBits, p.ClockHz)
	}
	// 32-bit @ 100 MHz moves one word per 10 ns.
	base := p.TransferTime(0)
	if got := p.TransferTime(100) - base; got != time.Microsecond {
		t.Errorf("100 words = %v, want 1µs", got)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	set := bitstreams(t)
	orig := set.PerRegion[0][0]

	corrupt := func(mutate func(w []uint32)) error {
		cp := *orig
		cp.Words = append([]uint32(nil), orig.Words...)
		mutate(cp.Words)
		_, err := New(32, 0).Load(&cp)
		return err
	}

	if err := corrupt(func(w []uint32) { w[1] = 0xDEADBEEF }); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("bad sync: %v", err)
	}
	if err := corrupt(func(w []uint32) { w[2] = 0 }); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("bad FAR cmd: %v", err)
	}
	if err := corrupt(func(w []uint32) { w[4] = 0 }); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("bad FDRI cmd: %v", err)
	}
	if err := corrupt(func(w []uint32) { w[10]++ }); !errors.Is(err, ErrCRC) {
		t.Errorf("payload corruption: %v", err)
	}
	if err := corrupt(func(w []uint32) { w[len(w)-1] = 0 }); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("bad desync: %v", err)
	}
	if err := corrupt(func(w []uint32) {
		w[5] = bitstream.Type2Hdr | uint32(device.WordsPerFrame+1)
	}); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("partial frame count: %v", err)
	}

	short := *orig
	short.Words = short.Words[:5]
	if _, err := New(32, 0).Load(&short); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("truncated stream: %v", err)
	}
	trunc := *orig
	trunc.Words = trunc.Words[:20]
	if _, err := New(32, 0).Load(&trunc); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestRepeatedLoadsOverwrite(t *testing.T) {
	set := bitstreams(t)
	if len(set.PerRegion[0]) < 2 {
		t.Skip("region 0 has a single part")
	}
	p := New(32, 0)
	a, b := set.PerRegion[0][0], set.PerRegion[0][1]
	if _, err := p.Load(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(b); err != nil {
		t.Fatal(err)
	}
	// Same address: frame count unchanged, contents now b's.
	if p.Memory().FrameCount() != a.Frames {
		t.Errorf("frame count = %d, want %d", p.Memory().FrameCount(), a.Frames)
	}
	f0 := p.Memory().ReadFrame(b.Addr, 0)
	if f0[0] != b.Words[6] {
		t.Error("second load did not overwrite frame 0")
	}
}

func TestStorageModels(t *testing.T) {
	bs := bitstreams(t).PerRegion[0][0]

	plain := New(32, 100_000_000)
	base, err := plain.Load(bs)
	if err != nil {
		t.Fatal(err)
	}

	// Streamed fast storage: fetch overlaps transfer; with DDR2 feeding
	// a 32-bit ICAP the transfer dominates, so timing is unchanged.
	ddr := New(32, 100_000_000)
	ddr.AttachStorage(DDR2())
	dd, err := ddr.Load(bs)
	if err != nil {
		t.Fatal(err)
	}
	if dd < base {
		t.Errorf("streamed load %v below pure transfer %v", dd, base)
	}
	if dd > 2*base {
		t.Errorf("DDR2 streamed load %v should be near transfer time %v", dd, base)
	}

	// Staged slow storage: fetch adds on top of transfer.
	cf := New(32, 100_000_000)
	cf.AttachStorage(CompactFlash())
	cd, err := cf.Load(bs)
	if err != nil {
		t.Fatal(err)
	}
	want := CompactFlash().FetchTime(bs.Bytes()) + base
	if cd != want {
		t.Errorf("staged load = %v, want %v", cd, want)
	}
	if cd <= dd {
		t.Error("CompactFlash should be slower than DDR2")
	}

	// Detach restores pure transfer time.
	cf.AttachStorage(nil)
	if got := cf.LoadTime(bs); got != base {
		t.Errorf("detached LoadTime = %v, want %v", got, base)
	}
}

func TestStorageFetchTime(t *testing.T) {
	s := &Storage{Latency: time.Millisecond, BytesPerSec: 1 << 20}
	if got := s.FetchTime(1 << 20); got != time.Millisecond+time.Second {
		t.Errorf("FetchTime = %v", got)
	}
	zero := &Storage{Latency: time.Microsecond}
	if got := zero.FetchTime(100); got != time.Microsecond {
		t.Errorf("zero-bandwidth FetchTime = %v", got)
	}
	if out := DDR2().String(); !strings.Contains(out, "DDR2") || !strings.Contains(out, "streamed") {
		t.Errorf("String = %q", out)
	}
	if out := CompactFlash().String(); !strings.Contains(out, "staged") {
		t.Errorf("String = %q", out)
	}
}

// FrameCount returns the number of distinct frames ever written.
func (m *ConfigMemory) FrameCount() int { return len(m.frames) }

// Memory exposes the configuration memory model.
func (p *Port) Memory() *ConfigMemory { return p.mem }

// String describes the storage.
func (s *Storage) String() string {
	mode := "staged"
	if s.Streamed {
		mode = "streamed"
	}
	return fmt.Sprintf("%s (%d MB/s, %v latency, %s)", s.Name, s.BytesPerSec>>20, s.Latency, mode)
}
