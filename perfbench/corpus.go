package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"prpart/internal/design"
	"prpart/internal/synthetic"
)

// Each workload derives its inputs from the run's seed alone; the
// program under test only ever sees the generated designs and request
// bodies. The sizes below are per second of --seconds: they were set so
// that all of a run's rounds, set-ups included, take about --seconds on
// a quiet 2-core host.
const (
	sweepDesignsPerSecond = 14
	serveRequestsPerSec   = 50
)

// Stream numbers keep the workloads' random streams apart; subSeed
// derives each stream's seed from the run's seed.
const (
	seedSweep int64 = iota + 1
	seedFixed
	seedNew
	seedMix
	seedSegment // serve segment k uses seedSegment + k
)

// subSeed hashes a run's seed and a stream number (splitmix64). A plain
// seed ^ stream would let one run's seed turn one stream into another:
// with streams 3 and 4, seed 7 drew the fixed corpus as its new designs.
func subSeed(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// modeCountShares returns, for each total mode count k, the probability
// that synthetic.One draws a design with k modes: the module count is
// uniform in [MinModules, MaxModules] and each module's mode count is
// uniform in [MinModes, MaxModes].
func modeCountShares() map[int]float64 {
	perModule := float64(synthetic.MaxModes - synthetic.MinModes + 1)
	out := map[int]float64{}
	dist := map[int]float64{0: 1}
	for m := 1; m <= synthetic.MaxModules; m++ {
		next := map[int]float64{}
		for k, p := range dist {
			for modes := synthetic.MinModes; modes <= synthetic.MaxModes; modes++ {
				next[k+modes] += p / perModule
			}
		}
		dist = next
		if m >= synthetic.MinModules {
			for k, p := range dist {
				out[k] += p / float64(synthetic.MaxModules-synthetic.MinModules+1)
			}
		}
	}
	return out
}

// modeCount returns a design's total number of modes.
func modeCount(d *design.Design) int {
	n := 0
	for _, m := range d.Modules {
		n += len(m.Modes)
	}
	return n
}

// stratifiedCorpus draws about n designs of the paper's §V distribution
// from synthetic.Generate(seed, ·). Solve time grows steeply with a
// design's total mode count, so a plain draw of n designs changes the
// run's total work by several percent from seed to seed. Instead every
// mode-count stratum gets a fixed quota, its share of n under the
// generator's own distribution, and the seed only chooses which designs
// fill each quota. The picked designs are then shuffled by the seed: the
// rare, large strata fill last, and left in order they would bunch at
// the end of the run.
func stratifiedCorpus(seed int64, n int) []*design.Design {
	quota := map[int]int{}
	for k, p := range modeCountShares() {
		if q := int(math.Round(p * float64(n))); q > 0 {
			quota[k] = q
		}
	}
	for pool := 4 * n; ; pool *= 2 {
		left := make(map[int]int, len(quota))
		for k, q := range quota {
			left[k] = q
		}
		var picked []*design.Design
		for _, d := range synthetic.Generate(seed, pool) {
			if k := modeCount(d); left[k] > 0 {
				left[k]--
				picked = append(picked, d)
			}
		}
		full := true
		for _, q := range left {
			if q > 0 {
				full = false
			}
		}
		if full {
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
			return picked
		}
	}
}

// solveEnvelope renders a design as a /v1/solve request body.
func solveEnvelope(d *design.Design) ([]byte, error) {
	var dj bytes.Buffer
	if err := design.EncodeJSON(&dj, d); err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"design": %s, "options": {}}`, dj.String())), nil
}

// request is one op of the serve workload: which body to post and to
// which node.
type request struct {
	Key  int // index into serveInputs.Bodies
	Node int
}

// serveInputs is the serve workload's generated traffic.
type serveInputs struct {
	Bodies  [][]byte         // every distinct request body: warm set first
	Designs []*design.Design // the design each body carries
	Warm    int              // Bodies[:Warm] are solved during set-up
	Seq     []request        // the timed request sequence, in dispatch order
}

// repeatShare is the share of timed requests that repeat an earlier key.
const repeatShare = 0.8

// dealChunks deals designs into k chunks of equal size and mix: it
// sorts them by mode count and deals them out in turn, so every chunk
// holds its share of each stratum, then shuffles each chunk by the seed.
func dealChunks(designs []*design.Design, k int, seed int64) [][]*design.Design {
	sorted := append([]*design.Design(nil), designs...)
	sort.SliceStable(sorted, func(i, j int) bool { return modeCount(sorted[i]) < modeCount(sorted[j]) })
	chunks := make([][]*design.Design, k)
	for i, d := range sorted {
		chunks[i%k] = append(chunks[i%k], d)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range chunks {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	return chunks
}

// fixedDesigns is the size of the fixed corpus.
const fixedDesigns = 40

// fixedCorpus is a §V corpus that is the same for every seed. Each
// workload reports the quality of its answers (frames_vs_modular) over
// it: over a seeded corpus the mean share swings by about 5% from seed
// to seed, all of it input, while over a fixed corpus it changes only
// when the program's answers do, so its bound can be tight.
func fixedCorpus() []*design.Design { return stratifiedCorpus(subSeed(0, seedFixed), fixedDesigns) }

// serveTraffic builds the serve workload: the warm set of distinct
// designs, then n requests of which about repeatShare repeat a key seen
// before (uniformly among all earlier keys, warm ones included) and the
// rest introduce a new design. Each request goes to a seeded-random node.
func serveTraffic(seed int64, warmDesigns []*design.Design, n, nodes int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, seedMix)))
	// The share of new keys is exact, so every seed has as many misses
	// to take percentiles over; the seed places them.
	newCount := int(math.Round((1 - repeatShare) * float64(n)))
	isNew := make([]bool, n)
	for _, i := range rng.Perm(n)[:newCount] {
		isNew[i] = true
	}
	newDesigns := stratifiedCorpus(subSeed(seed, seedNew), newCount)
	// Quota rounding can leave a few designs short of newCount; the
	// surplus new slots turn into repeats.
	in := &serveInputs{Warm: len(warmDesigns)}
	for _, d := range append(warmDesigns, newDesigns...) {
		b, err := solveEnvelope(d)
		if err != nil {
			return nil, err
		}
		in.Bodies = append(in.Bodies, b)
		in.Designs = append(in.Designs, d)
	}
	seen := in.Warm // keys introduced so far
	for i := 0; i < n; i++ {
		r := request{Node: rng.Intn(nodes)}
		if isNew[i] && seen < len(in.Bodies) {
			r.Key = seen
			seen++
		} else {
			r.Key = rng.Intn(seen)
		}
		in.Seq = append(in.Seq, r)
	}
	return in, nil
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
