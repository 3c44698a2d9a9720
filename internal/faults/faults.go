// Package faults injects reproducible failures into the runtime
// reconfiguration stack. Real PR systems lose loads to SEU-corrupted
// bitstreams, storage read faults and aborted transfers; the partitioner's
// cost model (and prsim's realised-time comparison) only stays honest if
// the runtime manager's recovery work — retries, scrubbing, fallback — is
// driven by a fault process that every run can replay exactly.
//
// An Injector is seeded and consulted once per bitstream load. It decides
// whether that load suffers a fault and which kind: an in-transit bit flip
// (caught by the ICAP CRC check), a truncated transfer (malformed packet
// stream), a storage fetch failure (the bitstream never reaches the port),
// or a post-load configuration upset (caught only by readback
// verification). Decisions come from per-operation probabilities, from a
// fixed schedule ("fail load N"), or both — scheduled faults take
// precedence. The same seed and the same sequence of loads always yield
// the same faults, byte for byte.
package faults

import (
	"math"
	"math/rand"
)

// Kind enumerates the fault classes the injector can produce.
type Kind int

const (
	// None means the load proceeds cleanly.
	None Kind = iota
	// BitFlip corrupts one payload word in transit; the ICAP CRC check
	// rejects the load.
	BitFlip
	// Truncate aborts the transfer partway; the port sees a malformed
	// packet stream.
	Truncate
	// FetchFail fails the storage read before any transfer happens.
	FetchFail
	// SEU flips a configuration-memory bit after a successful load; only
	// readback verification notices.
	SEU
)

// Decision is the injector's plan for one load.
type Decision struct {
	// Kind is the fault class, or None.
	Kind Kind
	// Word locates the fault: the payload word to corrupt (BitFlip, SEU)
	// or the number of words that survive the transfer (Truncate).
	Word int
	// Bit is the bit position flipped within Word (BitFlip, SEU).
	Bit int
}

// Rates configures the per-operation fault probabilities.
type Rates struct {
	// WordError is the per-payload-word probability of an in-transit bit
	// flip (the classic word error rate of a noisy configuration path).
	WordError float64
	// Truncate is the per-load probability of an aborted transfer.
	Truncate float64
	// FetchFail is the per-load probability of a storage read failure.
	FetchFail float64
	// SEU is the per-load probability of a post-load configuration upset.
	SEU float64
}

// Uniform derives a full rate set from a single word-error rate: transfers
// see flips at r per word, while the per-load faults are scaled to the
// same order of magnitude as a ~thousand-word load (aborts and fetch
// faults at 100r, upsets at 200r). Uniform(0) disables everything.
func Uniform(r float64) Rates {
	return Rates{WordError: r, Truncate: 100 * r, FetchFail: 100 * r, SEU: 200 * r}
}

// Zero reports whether the rate set never fires.
func (r Rates) Zero() bool {
	return r.WordError <= 0 && r.Truncate <= 0 && r.FetchFail <= 0 && r.SEU <= 0
}

// Stats counts the faults the injector has produced.
type Stats struct {
	// Loads is the number of loads planned (faulty or not).
	Loads int
	// BitFlips, Truncations, FetchFails and SEUs count injected faults by
	// kind.
	BitFlips, Truncations, FetchFails, SEUs int
}

// Total returns the number of faults injected.
func (s Stats) Total() int {
	return s.BitFlips + s.Truncations + s.FetchFails + s.SEUs
}

// Injector plans faults for a sequence of bitstream loads. It is
// deterministic: a given seed, schedule and sequence of PlanLoad calls
// always produces the same decisions. It is not safe for concurrent use.
type Injector struct {
	rng   *rand.Rand
	rates Rates
	sched map[int]Kind
	stats Stats
}

// New returns an injector with the given seed and probabilities.
func New(seed int64, rates Rates) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), rates: rates}
}

// ScheduleAt forces the given fault on load n (0-based across the
// injector's lifetime), overriding the probabilistic draw for that load.
// Scheduling None suppresses any probabilistic fault on that load.
func (in *Injector) ScheduleAt(n int, k Kind) {
	if in.sched == nil {
		in.sched = map[int]Kind{}
	}
	in.sched[n] = k
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// PlanLoad decides the fault, if any, for the next load, whose FDRI
// payload is payloadWords long. At most one fault fires per load; when
// several classes would fire, the earliest in the transfer pipeline wins
// (fetch, then truncation, then bit flip, then upset).
func (in *Injector) PlanLoad(payloadWords int) Decision {
	n := in.stats.Loads
	in.stats.Loads++
	if payloadWords < 1 {
		payloadWords = 1
	}
	if k, ok := in.sched[n]; ok {
		return in.count(in.materialize(k, payloadWords))
	}
	if in.rates.Zero() {
		return Decision{Kind: None}
	}
	// One draw per class keeps the stream alignment independent of which
	// fault fires, so editing one rate cannot silently reshuffle the rest
	// of the run.
	fetch := in.rng.Float64() < in.rates.FetchFail
	trunc := in.rng.Float64() < in.rates.Truncate
	flip := in.hit(payloadWords, in.rates.WordError)
	seu := in.rng.Float64() < in.rates.SEU
	switch {
	case fetch:
		return in.count(in.materialize(FetchFail, payloadWords))
	case trunc:
		return in.count(in.materialize(Truncate, payloadWords))
	case flip >= 0:
		return in.count(Decision{Kind: BitFlip, Word: flip, Bit: in.rng.Intn(32)})
	case seu:
		return in.count(in.materialize(SEU, payloadWords))
	}
	return Decision{Kind: None}
}

// hit returns the index of the first of n independent trials at
// probability p that succeeds, or -1 when none does, using a single
// geometric draw so large payloads cost one random number, not n.
func (in *Injector) hit(n int, p float64) int {
	if p <= 0 {
		return -1
	}
	if p >= 1 {
		return 0
	}
	u := in.rng.Float64()
	skip := int(math.Log(1-u) / math.Log(1-p))
	if skip < 0 || skip >= n {
		return -1
	}
	return skip
}

// materialize fills in the fault location for a decided kind.
func (in *Injector) materialize(k Kind, payloadWords int) Decision {
	switch k {
	case BitFlip, SEU:
		return Decision{Kind: k, Word: in.rng.Intn(payloadWords), Bit: in.rng.Intn(32)}
	case Truncate:
		// Keep at least the sync header so the abort happens mid-payload.
		return Decision{Kind: k, Word: 2 + in.rng.Intn(payloadWords)}
	case FetchFail:
		return Decision{Kind: k}
	}
	return Decision{Kind: None}
}

// count updates the per-kind counters and passes the decision through.
func (in *Injector) count(d Decision) Decision {
	switch d.Kind {
	case BitFlip:
		in.stats.BitFlips++
	case Truncate:
		in.stats.Truncations++
	case FetchFail:
		in.stats.FetchFails++
	case SEU:
		in.stats.SEUs++
	}
	return d
}
