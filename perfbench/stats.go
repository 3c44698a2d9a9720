package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile. With fewer, the percentile is one or two outliers and
// moves run to run with nothing changed.
const minBeyond = 10

// pct is one percentile as reported: its value, the sample count it was
// taken over, and how many samples lie strictly beyond it.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank, so a
// run too short for its percentile fails instead of printing noise.
func percentile(xs []float64, q float64) (pct, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return pct{}, fmt.Errorf("percentile p%g of %d samples: undefined", 100*q, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	p := pct{Value: s[rank], N: n, Beyond: n - 1 - rank}
	if p.Beyond < minBeyond {
		return p, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d",
			100*q, n, p.Beyond, minBeyond)
	}
	return p, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count). It summarises a handful of repeated timings, such
// as set-ups or passes; a distribution of per-op latencies takes
// percentile, which enforces the samples-beyond rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeUp reports whether a run that started at start and has made k
// rounds (sweep chunks or serve segments) starts no more: once it has
// made min rounds, it starts none after --seconds. On a quiet host every
// round fits in --seconds; on a host slowed down 2.5x, which happens
// here when other guests take the CPUs, the run still ends in about
// twice --seconds and the benchmark's many runs stay within their time.
func timeUp(cfg config, k, min int, start time.Time) bool {
	return k >= min && time.Since(start) >= time.Duration(cfg.Seconds)*time.Second
}

// tracedRounds is how many untraced chunks (sweep) or segments (serve)
// a traced run makes before its traced pass and the layer probes, which
// keeps it near the length of an untraced run; per-layer metrics carry
// no bound, so two are enough to compare against and to pool ten
// samples beyond each tier percentile.
const tracedRounds = 2

// tiers holds latency samples split by the tier that answered each op
// (the X-Cache header for serve requests). Percentiles are only ever
// taken within one tier: a percentile over a mix of sub-millisecond hits
// and tens-of-milliseconds misses sits on the boundary between the two
// modes and swings with the mix.
type tiers struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newTiers() *tiers { return &tiers{ms: map[string][]float64{}} }

func (t *tiers) add(tier string, d time.Duration) {
	t.mu.Lock()
	t.ms[tier] = append(t.ms[tier], float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// of returns the samples of one tier.
func (t *tiers) of(tier string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms[tier]...)
}

// merge adds every sample of o to t, tier by tier.
func (t *tiers) merge(o *tiers) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for tier, xs := range o.ms {
		t.ms[tier] = append(t.ms[tier], xs...)
	}
}

// count returns the number of samples in one tier.
func (t *tiers) count(tier string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ms[tier])
}

// tally counts attempted and failed ops. An op counts as succeeded only
// when it was answered, its answer was checked, and the check passed:
// a refused op, a transport error and an op whose output was never
// checked all count as failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// op records one attempted op; reason is empty for a checked success.
func (t *tally) op(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason != "" {
		t.failed++
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[reason]++
	}
}

// parallel calls fn(i) for every i in [0, n) from `workers` goroutines,
// each taking the next index as it finishes the last, and returns once
// every call has.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// hostCPU reads the host's aggregate CPU counters from /proc/stat: busy
// (user, nice, system, irq, softirq) and steal jiffies, the time a
// virtual CPU wanted to run but the hypervisor ran something else.
func hostCPU() (busy, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak-RSS window: on Linux, writing 5 to
// /proc/self/clear_refs resets the process's VmHWM to its current RSS.
// Each pass measures its own peak, so one pass that happens to hold two
// large solves at once does not set the figure for the whole run.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size since the last
// resetPeakRSS, in MB (VmHWM in /proc/self/status, reported in KiB).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
