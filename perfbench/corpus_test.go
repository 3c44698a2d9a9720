package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"prpart/internal/design"
)

func encodeAll(t *testing.T, ds []*design.Design) [][]byte {
	t.Helper()
	out := make([][]byte, len(ds))
	for i, d := range ds {
		b, err := solveEnvelope(d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	a, b := encodeAll(t, stratifiedCorpus(3, 200)), encodeAll(t, stratifiedCorpus(3, 200))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep corpus differs for one seed")
	}
	if reflect.DeepEqual(a, encodeAll(t, stratifiedCorpus(4, 200))) {
		t.Fatal("sweep corpus ignores the seed")
	}
	s1, err := serveTraffic(3, stratifiedCorpus(9, 10), 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := serveTraffic(3, stratifiedCorpus(9, 10), 300, 3)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("serve traffic differs for one seed")
	}
	s3, _ := serveTraffic(4, stratifiedCorpus(9, 10), 300, 3)
	if reflect.DeepEqual(s1.Seq, s3.Seq) {
		t.Fatal("serve traffic ignores the seed")
	}
}

func TestStratifiedCorpusKeepsTheMix(t *testing.T) {
	shares := modeCountShares()
	sum := 0.0
	for _, p := range shares {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mode-count shares sum to %v", sum)
	}
	for _, seed := range []int64{1, 2} {
		ds := stratifiedCorpus(seed, 500)
		got := map[int]int{}
		for _, d := range ds {
			got[modeCount(d)]++
		}
		for k, p := range shares {
			if want := int(math.Round(p * 500)); got[k] != want {
				t.Errorf("seed %d: %d designs with %d modes, want %d", seed, got[k], k, want)
			}
		}
	}
}

func TestDealChunksKeepsTheMix(t *testing.T) {
	ds := stratifiedCorpus(1, 400)
	chunks := dealChunks(ds, 5, 1)
	total := 0
	perChunk := make([]map[int]int, len(chunks))
	for c, chunk := range chunks {
		total += len(chunk)
		perChunk[c] = map[int]int{}
		for _, d := range chunk {
			perChunk[c][modeCount(d)]++
		}
	}
	if total != len(ds) {
		t.Fatalf("chunks hold %d designs, corpus %d", total, len(ds))
	}
	for k := range modeCountShares() {
		lo, hi := len(ds), 0
		for _, m := range perChunk {
			lo, hi = min(lo, m[k]), max(hi, m[k])
		}
		if hi-lo > 1 {
			t.Errorf("%d-mode designs: %d to %d per chunk", k, lo, hi)
		}
	}
	if !reflect.DeepEqual(encodeAll(t, chunks[0]), encodeAll(t, dealChunks(ds, 5, 1)[0])) {
		t.Fatal("chunks differ for one seed")
	}
}

func TestSubSeedsKeepStreamsApart(t *testing.T) {
	fixed := subSeed(0, seedFixed)
	for seed := int64(-1000); seed <= 100000; seed++ {
		for _, stream := range []int64{seedSweep, seedNew, seedMix, seedSegment, seedSegment + 1, seedSegment + 2} {
			if subSeed(seed, stream) == fixed {
				t.Fatalf("seed %d stream %d draws the fixed corpus", seed, stream)
			}
		}
	}
}

func TestServeTrafficMix(t *testing.T) {
	// Seed 7 once drew the fixed corpus as its new designs.
	for _, seed := range []int64{5, 7} {
		checkServeTrafficMix(t, seed)
	}
}

func checkServeTrafficMix(t *testing.T, seed int64) {
	in, err := serveTraffic(seed, fixedCorpus(), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	news, nodes := 0, map[int]int{}
	seen := in.Warm
	for _, r := range in.Seq {
		nodes[r.Node]++
		switch {
		case r.Key == seen:
			seen++
			news++
		case r.Key > seen:
			t.Fatalf("key %d requested before key %d", r.Key, seen)
		}
	}
	if share := float64(news) / float64(len(in.Seq)); share < 0.15 || share > 0.25 {
		t.Errorf("new-key share %.3f, want about %.2f", share, 1-repeatShare)
	}
	if len(nodes) != 3 {
		t.Errorf("requests reach %d nodes", len(nodes))
	}
	for i := range in.Bodies {
		for j := i + 1; j < len(in.Bodies); j++ {
			if bytes.Equal(in.Bodies[i], in.Bodies[j]) {
				t.Fatalf("bodies %d and %d are the same design", i, j)
			}
		}
	}
}
