package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// This file extends the package's seeded fault discipline from the
// reconfiguration runtime (bitstream loads, PlanLoad) to the storage
// layer under the serving stack: the persistent result store survives
// crashes only if fsync ordering, rename atomicity and corruption
// detection are exercised against a fault process every run can replay
// exactly. An IOInjector plans one decision per filesystem operation —
// short writes, read corruption, fsync and rename failures, and
// latency stalls — and is consulted by the store's VFS seam
// (internal/store.FaultFS).

// IOOp classifies the filesystem operation a decision is planned for.
type IOOp int

const (
	// OpWrite is a file write (Create or append path).
	OpWrite IOOp = iota
	// OpRead is a file read.
	OpRead
	// OpSync is an fsync.
	OpSync
	// OpRename is an atomic rename.
	OpRename
)

// IOKind enumerates the I/O fault classes.
type IOKind int

const (
	// IONone means the operation proceeds cleanly.
	IONone IOKind = iota
	// IOShortWrite persists only a prefix of the buffer and fails the
	// write — the classic torn write of a power loss mid-append.
	IOShortWrite
	// IOReadCorrupt flips one bit in the bytes returned by a read,
	// modelling media decay and transient controller errors.
	IOReadCorrupt
	// IOSyncErr fails an fsync without persisting, so data the caller
	// believes unsafe really is lost on the next crash.
	IOSyncErr
	// IORenameErr fails a rename, leaving the temp file in place.
	IORenameErr
	// IOStall delays the operation without failing it.
	IOStall
)

// String names the fault kind.
func (k IOKind) String() string {
	switch k {
	case IONone:
		return "none"
	case IOShortWrite:
		return "short-write"
	case IOReadCorrupt:
		return "read-corrupt"
	case IOSyncErr:
		return "sync-err"
	case IORenameErr:
		return "rename-err"
	case IOStall:
		return "stall"
	}
	return fmt.Sprintf("IOKind(%d)", int(k))
}

// IORates configures the per-operation fault probabilities. Each rate
// applies only to the operations its class can afflict (short writes to
// writes, corruption to reads, and so on); Stall applies to every
// operation.
type IORates struct {
	ShortWrite  float64
	ReadCorrupt float64
	SyncErr     float64
	RenameErr   float64
	Stall       float64
	// MaxStall bounds an injected stall (default 1ms when Stall > 0).
	MaxStall time.Duration
}

// UniformIO derives a rate set firing every failure class at rate r.
// Stalls stay off: they slow the caller without changing behaviour, so
// chaos suites opt into them explicitly.
func UniformIO(r float64) IORates {
	return IORates{ShortWrite: r, ReadCorrupt: r, SyncErr: r, RenameErr: r}
}

// Zero reports whether the rate set never fires.
func (r IORates) Zero() bool {
	return r.ShortWrite <= 0 && r.ReadCorrupt <= 0 && r.SyncErr <= 0 &&
		r.RenameErr <= 0 && r.Stall <= 0
}

// IODecision is the injector's plan for one filesystem operation.
type IODecision struct {
	// Kind is the fault class, or IONone.
	Kind IOKind
	// Keep is the number of bytes that survive a short write.
	Keep int
	// Bit is the bit index (within the operation's byte range) flipped
	// by a read corruption.
	Bit int
	// Stall is the injected delay for IOStall.
	Stall time.Duration
}

// IOStats counts the faults the injector has produced.
type IOStats struct {
	// Ops is the number of operations planned (faulty or not).
	Ops int
	// Per-kind injected fault counts.
	ShortWrites, ReadCorruptions, SyncErrs, RenameErrs, Stalls int
}

// Total returns the number of faults injected.
func (s IOStats) Total() int {
	return s.ShortWrites + s.ReadCorruptions + s.SyncErrs + s.RenameErrs + s.Stalls
}

// IOInjector plans faults for a sequence of filesystem operations. Like
// Injector it is deterministic: the same seed, schedule and sequence of
// PlanOp calls always yields the same decisions. It is safe for
// concurrent use, but determinism then requires the callers themselves
// to serialize operations in a reproducible order (the store's mutex
// does this for a single-store process).
type IOInjector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates IORates
	sched map[int]IOKind
	stats IOStats
}

// NewIO returns an I/O injector with the given seed and probabilities.
func NewIO(seed int64, rates IORates) *IOInjector {
	if rates.Stall > 0 && rates.MaxStall <= 0 {
		rates.MaxStall = time.Millisecond
	}
	return &IOInjector{rng: rand.New(rand.NewSource(seed)), rates: rates}
}

// ScheduleOp forces the given fault on operation n (0-based across the
// injector's lifetime), overriding the probabilistic draw. A kind that
// cannot afflict the operation actually seen at n degrades to IONone.
// Scheduling IONone suppresses any probabilistic fault on that op.
func (in *IOInjector) ScheduleOp(n int, k IOKind) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sched == nil {
		in.sched = map[int]IOKind{}
	}
	in.sched[n] = k
}

// Stats returns a copy of the injection counters.
func (in *IOInjector) Stats() IOStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// applicable reports whether kind k can afflict operation op.
func applicable(op IOOp, k IOKind) bool {
	switch k {
	case IOShortWrite:
		return op == OpWrite
	case IOReadCorrupt:
		return op == OpRead
	case IOSyncErr:
		return op == OpSync
	case IORenameErr:
		return op == OpRename
	case IOStall:
		return true
	}
	return false
}

// PlanOp decides the fault, if any, for the next filesystem operation,
// which moves size bytes (0 for sync and rename). At most one fault
// fires per operation; the class specific to the operation outranks a
// stall. One draw is consumed per class regardless of which fires, so
// editing one rate cannot reshuffle the rest of the run.
func (in *IOInjector) PlanOp(op IOOp, size int) IODecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.stats.Ops
	in.stats.Ops++
	if size < 1 {
		size = 1
	}
	if k, ok := in.sched[n]; ok {
		if !applicable(op, k) {
			return IODecision{Kind: IONone}
		}
		return in.count(in.materializeIO(k, size))
	}
	if in.rates.Zero() {
		return IODecision{Kind: IONone}
	}
	short := in.rng.Float64() < in.rates.ShortWrite
	corrupt := in.rng.Float64() < in.rates.ReadCorrupt
	syncE := in.rng.Float64() < in.rates.SyncErr
	renameE := in.rng.Float64() < in.rates.RenameErr
	stall := in.rng.Float64() < in.rates.Stall
	switch {
	case short && op == OpWrite:
		return in.count(in.materializeIO(IOShortWrite, size))
	case corrupt && op == OpRead:
		return in.count(in.materializeIO(IOReadCorrupt, size))
	case syncE && op == OpSync:
		return in.count(IODecision{Kind: IOSyncErr})
	case renameE && op == OpRename:
		return in.count(IODecision{Kind: IORenameErr})
	case stall:
		return in.count(in.materializeIO(IOStall, size))
	}
	return IODecision{Kind: IONone}
}

// materializeIO fills in the fault location for a decided kind.
func (in *IOInjector) materializeIO(k IOKind, size int) IODecision {
	switch k {
	case IOShortWrite:
		return IODecision{Kind: k, Keep: in.rng.Intn(size)}
	case IOReadCorrupt:
		return IODecision{Kind: k, Bit: in.rng.Intn(size * 8)}
	case IOStall:
		max := in.rates.MaxStall
		if max <= 0 {
			max = time.Millisecond // scheduled stall with stalls otherwise off
		}
		return IODecision{Kind: k, Stall: time.Duration(in.rng.Int63n(int64(max)) + 1)}
	case IOSyncErr, IORenameErr:
		return IODecision{Kind: k}
	}
	return IODecision{Kind: IONone}
}

// count updates the per-kind counters and passes the decision through.
func (in *IOInjector) count(d IODecision) IODecision {
	switch d.Kind {
	case IOShortWrite:
		in.stats.ShortWrites++
	case IOReadCorrupt:
		in.stats.ReadCorruptions++
	case IOSyncErr:
		in.stats.SyncErrs++
	case IORenameErr:
		in.stats.RenameErrs++
	case IOStall:
		in.stats.Stalls++
	}
	return d
}
