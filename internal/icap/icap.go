// Package icap simulates the internal configuration access port and the
// configuration memory behind it — the runtime half of partial
// reconfiguration (§III-A, standing in for the authors' open-source ICAP
// controller [15]). It parses the packet format produced by
// internal/bitstream, writes frames into a configuration-memory model,
// verifies the CRC, and accounts transfer time from the port's width and
// clock, which is how frame counts become seconds (eq. 9).
package icap

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"prpart/internal/bitstream"
	"prpart/internal/device"
	"prpart/internal/faults"
	"prpart/internal/obs"
)

// ErrBadBitstream reports a malformed packet stream.
var ErrBadBitstream = errors.New("icap: malformed bitstream")

// ErrCRC reports a checksum mismatch.
var ErrCRC = errors.New("icap: CRC mismatch")

// ErrFetch reports a storage read failure: the bitstream never reached
// the port.
var ErrFetch = errors.New("icap: bitstream fetch failed")

// ErrVerify reports a readback-verification mismatch between a loaded
// bitstream and the configuration memory.
var ErrVerify = errors.New("icap: readback verification mismatch")

// Port models the ICAP configuration interface.
type Port struct {
	// WidthBits is the port data width (8, 16 or 32 on Virtex-5).
	WidthBits int
	// ClockHz is the configuration clock (100 MHz max on Virtex-5).
	ClockHz int
	// OverheadCycles is the fixed per-bitstream cost (sync, command
	// decode, bitstream fetch setup).
	OverheadCycles int

	mem     *ConfigMemory
	stats   Stats
	storage *Storage
	inj     *faults.Injector
	windows map[int]Window
	obs     portObs
}

// portObs holds the port's observability instruments, resolved once in
// AttachObs. All fields are nil when observability is off, so the hot
// path pays one branch per touch point (see internal/obs).
type portObs struct {
	o                            *obs.Obs
	loads, bytes, frames, failed *obs.Counter
	readbacks, verifyErrs        *obs.Counter
	busy, stall, fault, recovery *obs.Timer
}

// AttachObs makes the port mirror its activity into the given
// observability registry and emit one trace event per load outcome.
// Counters: icap.loads, icap.bytes, icap.frames, icap.failed_loads;
// timers: icap.busy, icap.stall (storage-bound time beyond the pure ICAP
// transfer), icap.fault (time lost to failed loads). Nil detaches.
func (p *Port) AttachObs(o *obs.Obs) {
	if o == nil {
		p.obs = portObs{}
		return
	}
	p.obs = portObs{
		o:          o,
		loads:      o.Counter("icap.loads"),
		bytes:      o.Counter("icap.bytes"),
		frames:     o.Counter("icap.frames"),
		failed:     o.Counter("icap.failed_loads"),
		readbacks:  o.Counter("icap.readbacks"),
		verifyErrs: o.Counter("icap.verify_errors"),
		busy:       o.Timer("icap.busy"),
		stall:      o.Timer("icap.stall"),
		fault:      o.Timer("icap.fault"),
		recovery:   o.Timer("icap.recovery"),
	}
}

// Stats accumulates the port's activity.
type Stats struct {
	// Loads is the number of bitstreams processed successfully.
	Loads int
	// Words and Frames total the configuration data written.
	Words, Frames int
	// Busy is the cumulative time the port spent clocking data, including
	// failed and verified loads.
	Busy time.Duration

	// FailedLoads counts loads that returned an error, broken down by
	// cause in the per-cause counters below.
	FailedLoads int
	// FetchErrors counts storage read failures (ErrFetch).
	FetchErrors int
	// FormatErrors counts malformed packet streams — truncations, bad
	// headers, out-of-range FDRI counts (ErrBadBitstream except FAR
	// range violations).
	FormatErrors int
	// RangeErrors counts FAR targets outside the region's placement
	// window (ErrBadBitstream via Restrict/RestrictToPlan).
	RangeErrors int
	// CRCErrors counts checksum mismatches (ErrCRC).
	CRCErrors int
	// Readbacks counts Verify calls; VerifyErrors counts the mismatches
	// among them (ErrVerify).
	Readbacks, VerifyErrors int
	// FaultTime is the port time consumed by loads that failed — the
	// wasted transfers behind the retry accounting upstream.
	FaultTime time.Duration
}

// New returns a port with the given geometry attached to a fresh
// configuration memory. Zero width/clock default to the fastest Virtex-5
// configuration: 32 bits at 100 MHz.
func New(widthBits, clockHz int) *Port {
	if widthBits == 0 {
		widthBits = 32
	}
	if clockHz == 0 {
		clockHz = 100_000_000
	}
	return &Port{
		WidthBits:      widthBits,
		ClockHz:        clockHz,
		OverheadCycles: 64,
		mem:            NewConfigMemory(),
	}
}

// Stats returns a copy of the accumulated statistics.
func (p *Port) Stats() Stats { return p.stats }

// TransferTime returns the time to clock n words through the port.
func (p *Port) TransferTime(words int) time.Duration {
	cycles := words*(32/p.WidthBits) + p.OverheadCycles
	return time.Duration(float64(cycles) / float64(p.ClockHz) * float64(time.Second))
}

// FrameTime returns the time to write n frames (eq. 9's proportionality
// constant for this port).
func (p *Port) FrameTime(frames int) time.Duration {
	return p.TransferTime(frames * device.WordsPerFrame)
}

// Load parses a partial bitstream, writes its frames to configuration
// memory, verifies the CRC, and returns the transfer time. On failure it
// returns the time the port spent before detecting the fault — the
// aborted transfer is still paid for — alongside the error, and records
// the failure in the per-cause Stats counters. With an injector attached
// (AttachInjector), the transfer may be corrupted, truncated or failed
// according to the injector's plan; the caller's bitstream is never
// mutated.
func (p *Port) Load(bs *bitstream.Bitstream) (time.Duration, error) {
	w := bs.Words
	var dec faults.Decision
	if p.inj != nil {
		dec = p.inj.PlanLoad(bs.PayloadWords())
	}
	switch dec.Kind {
	case faults.FetchFail:
		d := p.fetchAbortTime()
		p.fail(&p.stats.FetchErrors, "fetch", d)
		return d, fmt.Errorf("%w: injected storage fault", ErrFetch)
	case faults.BitFlip:
		if i := 6 + dec.Word; i < len(w) {
			w = append([]uint32(nil), w...)
			w[i] ^= 1 << dec.Bit
		}
	case faults.Truncate:
		if dec.Word < len(w) {
			w = w[:dec.Word]
		}
	}
	if len(w) < 8 || w[0] != bitstream.DummyWord || w[1] != bitstream.SyncWord {
		d := p.abortTime(len(w))
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: missing sync header", ErrBadBitstream)
	}
	if w[2] != bitstream.CmdWriteFAR {
		d := p.abortTime(3)
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: expected FAR write", ErrBadBitstream)
	}
	far := bitstream.UnpackFAR(w[3])
	if p.windows != nil {
		win, ok := p.windows[bs.Region]
		if !ok || !win.contains(far) {
			d := p.abortTime(4)
			p.fail(&p.stats.RangeErrors, "range", d)
			return d, fmt.Errorf("%w: FAR (row %d, major %d) outside region %d placement",
				ErrBadBitstream, far.Row, far.Major, bs.Region)
		}
	}
	if w[4] != bitstream.CmdWriteFDRI {
		d := p.abortTime(5)
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: expected FDRI write", ErrBadBitstream)
	}
	count := int(w[5] & 0x07FFFFFF)
	if count%device.WordsPerFrame != 0 {
		d := p.abortTime(6)
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: FDRI count %d not a whole number of frames", ErrBadBitstream, count)
	}
	if len(w) < 6+count+4 {
		d := p.abortTime(len(w))
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: truncated payload", ErrBadBitstream)
	}
	payload := w[6 : 6+count]
	rest := w[6+count:]
	if rest[0] != bitstream.CmdWriteCRC {
		d := p.abortTime(6 + count + 1)
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: expected CRC write", ErrBadBitstream)
	}
	if got := bitstream.Checksum(payload); got != rest[1] {
		// The CRC register is checked only after the full transfer: the
		// whole (possibly fetched) load is wasted.
		d := p.LoadTime(bs)
		p.fail(&p.stats.CRCErrors, "crc", d)
		return d, fmt.Errorf("%w: got %08x, want %08x", ErrCRC, got, rest[1])
	}
	if rest[2] != bitstream.CmdDesync || rest[3] != bitstream.DesyncValue {
		d := p.abortTime(len(w))
		p.fail(&p.stats.FormatErrors, "format", d)
		return d, fmt.Errorf("%w: missing desync", ErrBadBitstream)
	}
	frames := count / device.WordsPerFrame
	p.mem.WriteFrames(far, payload)
	if dec.Kind == faults.SEU {
		p.mem.FlipBit(far, (dec.Word%count)/device.WordsPerFrame,
			(dec.Word%count)%device.WordsPerFrame, dec.Bit)
	}
	p.stats.Loads++
	p.stats.Words += len(w)
	p.stats.Frames += frames
	d := p.LoadTime(bs)
	p.stats.Busy += d
	p.obs.loads.Inc()
	p.obs.bytes.Add(int64(len(w)) * 4)
	p.obs.frames.Add(int64(frames))
	p.obs.busy.Observe(d)
	if p.obs.stall != nil {
		// Stall: the part of the load the storage model kept the port
		// waiting beyond the pure ICAP transfer.
		if xfer := p.TransferTime(len(w)); d > xfer {
			p.obs.stall.Observe(d - xfer)
		}
	}
	if p.obs.o != nil {
		p.obs.o.Emit("icap", "load",
			slog.Int("region", bs.Region), slog.Int("frames", frames), slog.Duration("took", d))
	}
	return d, nil
}

// fail records a failed load of the given cause and duration.
func (p *Port) fail(cause *int, name string, d time.Duration) {
	*cause++
	p.stats.FailedLoads++
	p.stats.FaultTime += d
	p.stats.Busy += d
	p.obs.failed.Inc()
	p.obs.fault.Observe(d)
	p.obs.busy.Observe(d)
	if p.obs.o != nil {
		p.obs.o.Emit("icap", "load.fail", slog.String("cause", name), slog.Duration("took", d))
	}
}

// abortTime is the port time consumed before a fault is detected n words
// into the stream.
func (p *Port) abortTime(n int) time.Duration { return p.TransferTime(n) }

// fetchAbortTime is the time lost to a failed storage fetch: the access
// latency when storage is attached, otherwise just the setup overhead.
func (p *Port) fetchAbortTime() time.Duration {
	if p.storage != nil {
		return p.storage.Latency
	}
	return p.TransferTime(0)
}

// ConfigMemory models the device configuration memory as frames indexed
// by address.
type ConfigMemory struct {
	frames map[frameKey][]uint32
}

type frameKey struct {
	far   bitstream.FAR
	minor int
}

// NewConfigMemory returns an empty configuration memory.
func NewConfigMemory() *ConfigMemory {
	return &ConfigMemory{frames: map[frameKey][]uint32{}}
}

// WriteFrames stores a payload of whole frames starting at far.
func (m *ConfigMemory) WriteFrames(far bitstream.FAR, payload []uint32) {
	for i := 0; i*device.WordsPerFrame < len(payload); i++ {
		frame := payload[i*device.WordsPerFrame : (i+1)*device.WordsPerFrame]
		cp := append([]uint32(nil), frame...)
		m.frames[frameKey{far: far, minor: i}] = cp
	}
}

// ReadFrame returns the frame at (far, minor), or nil when never written.
func (m *ConfigMemory) ReadFrame(far bitstream.FAR, minor int) []uint32 {
	f := m.frames[frameKey{far: far, minor: minor}]
	if f == nil {
		return nil
	}
	return append([]uint32(nil), f...)
}

// FlipBit inverts one bit of a stored frame — the configuration-memory
// upset (SEU) model behind injected post-load faults and scrubbing tests.
// Never-written frames are left untouched.
func (m *ConfigMemory) FlipBit(far bitstream.FAR, minor, word, bit int) {
	f := m.frames[frameKey{far: far, minor: minor}]
	if f == nil || word < 0 || word >= len(f) {
		return
	}
	f[word] ^= 1 << (bit & 31)
}
