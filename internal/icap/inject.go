package icap

import (
	"fmt"
	"log/slog"
	"time"

	"prpart/internal/bitstream"
	"prpart/internal/device"
	"prpart/internal/faults"
	"prpart/internal/floorplan"
)

// AttachInjector makes subsequent Loads consult the injector for faults:
// bit flips are applied to a copy of the transfer (surfacing as ErrCRC),
// truncations cut it short (ErrBadBitstream), fetch failures abort before
// transfer (ErrFetch), and SEUs corrupt configuration memory after an
// otherwise clean load (caught only by Verify). Nil detaches.
func (p *Port) AttachInjector(inj *faults.Injector) { p.inj = inj }

// Window is the frame-address rectangle a region's bitstreams may
// legally target: rows [Row0, Row1] by majors [Col0, Col1], inclusive.
type Window struct {
	Row0, Col0 int
	Row1, Col1 int
}

func (w Window) contains(f bitstream.FAR) bool {
	return f.Row >= w.Row0 && f.Row <= w.Row1 && f.Major >= w.Col0 && f.Major <= w.Col1
}

// Restrict registers the legal frame-address window for a region. Once
// any window is registered, a Load whose FAR falls outside its region's
// window — or whose region has no window at all — fails with a wrapped
// ErrBadBitstream before anything reaches configuration memory.
func (p *Port) Restrict(region int, w Window) {
	if p.windows == nil {
		p.windows = map[int]Window{}
	}
	p.windows[region] = w
}

// RestrictToPlan registers one window per placement of the floorplan, so
// every region's bitstreams are confined to the frames its placed
// rectangle actually owns.
func (p *Port) RestrictToPlan(plan *floorplan.Plan) {
	for _, pl := range plan.Placements {
		p.Restrict(pl.Region, Window{
			Row0: pl.Rect.Row0, Col0: pl.Rect.Col0,
			Row1: pl.Rect.Row1, Col1: pl.Rect.Col1,
		})
	}
}

// Readback returns the n frames stored at far (nil entries for frames
// never written) and the time reading them back through the port costs.
func (p *Port) Readback(far bitstream.FAR, n int) ([][]uint32, time.Duration) {
	out := make([][]uint32, n)
	for minor := range out {
		out[minor] = p.mem.ReadFrame(far, minor)
	}
	d := p.TransferTime(n * device.WordsPerFrame)
	p.stats.Readbacks++
	p.stats.Busy += d
	p.obs.readbacks.Inc()
	p.obs.busy.Observe(d)
	p.obs.recovery.Observe(d)
	return out, d
}

// Verify reads the frames a bitstream configured back out of
// configuration memory and compares them word-for-word with the
// bitstream's payload — the scrubbing check that catches configuration
// upsets the load-time CRC cannot see. It returns the readback time and,
// on mismatch, a wrapped ErrVerify.
func (p *Port) Verify(bs *bitstream.Bitstream) (time.Duration, error) {
	payload := bs.Payload()
	if payload == nil {
		return 0, fmt.Errorf("%w: %s has no payload to verify", ErrBadBitstream, bs.Name)
	}
	frames, d := p.Readback(bs.Addr, bs.Frames)
	for minor, got := range frames {
		want := payload[minor*device.WordsPerFrame : (minor+1)*device.WordsPerFrame]
		if !wordsEqual(got, want) {
			p.stats.VerifyErrors++
			p.obs.verifyErrs.Inc()
			if p.obs.o != nil {
				p.obs.o.Emit("icap", "verify.fail",
					slog.String("bitstream", bs.Name), slog.Int("frame", minor))
			}
			return d, fmt.Errorf("%w: frame %d of %s", ErrVerify, minor, bs.Name)
		}
	}
	return d, nil
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
