package partition

import (
	"math/rand"
	"testing"

	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/synthetic"
)

// scanTally runs one scan of cur at the given shard count and returns
// its selection with the moves_evaluated and moves_rejected it added.
func scanTally(s *searcher, cur *state, shards int, allowStatic, allowTransfers bool) (mv move, sc *scratch, ok bool, moves, rejects int64) {
	m0, r0 := s.cMoves.Value(), s.cRejects.Value()
	mv, sc, ok = s.scan.scan(cur, shards, allowStatic, allowTransfers)
	return mv, sc, ok, s.cMoves.Value() - m0, s.cRejects.Value() - r0
}

// checkShardInvariant walks the greedy descents greedy itself runs from
// st — every move vocabulary — and on each visited state scans as one
// shard and as refineShards shards: both must pick the same move with
// the same tallies. The scan memo is emptied before each of the two
// scans, so both evaluate every class of the vocabulary and the
// sharded one runs the per-class cross-shard reduction (otherwise the
// memo would answer the second scan from the first). The one-shard
// winner is applied, as on the solve path.
func checkShardInvariant(t *testing.T, label string, s *searcher, st *state) {
	t.Helper()
	for _, withStatic := range []bool{false, true} {
		for _, withTransfers := range []bool{false, true} {
			cur := st.clone()
			s.scan.beginRun()
			for step := 0; ; step++ {
				s.sc.memo.reset()
				mv1, sc1, ok1, m1, r1 := scanTally(s, cur, 1, withStatic, withTransfers)
				s.sc.memo.reset()
				mvN, _, okN, mN, rN := scanTally(s, cur, refineShards, withStatic, withTransfers)
				if ok1 != okN || mv1 != mvN || m1 != mN || r1 != rN {
					t.Fatalf("%s static=%v transfers=%v step %d: 1 shard picks %+v (ok=%v moves=%d rejects=%d), %d shards pick %+v (ok=%v moves=%d rejects=%d)",
						label, withStatic, withTransfers, step, mv1, ok1, m1, r1, refineShards, mvN, okN, mN, rN)
				}
				if !ok1 {
					break
				}
				s.applyMove(sc1, cur, mv1)
			}
		}
	}
}

// TestScanShardCountInvariant pins the move scan's one parameter: the
// shard count changes how the candidate space is split and which
// scratch caches what, never which move is selected or how many
// candidates are evaluated and rejected. It covers the solve path's
// candidate sets (all-separate and module-grouped starts, loose and
// tight budgets) over the paper designs and a seeded synthetic corpus,
// plus a refine-scale singleton warm start large enough to cross the
// parWorthwhile thresholds.
func TestScanShardCountInvariant(t *testing.T) {
	corpus := 10
	if raceEnabled {
		corpus = 3
	}
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	designs = append(designs, synthetic.Generate(9, corpus)...)
	for _, d := range designs {
		budget := Modular(d).TotalResources()
		for _, opts := range []Options{{Budget: budget}, {Budget: tighten(budget, 80)}} {
			opts.Obs = obs.New()
			for _, s := range newTestSearchers(t, d, opts) {
				checkShardInvariant(t, d.Name, s, s.initial())
				if seed := s.moduleGrouped(); seed != nil {
					checkShardInvariant(t, d.Name+"/module-grouped", s, seed)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	d := synthetic.HugeOne(rng, synthetic.Logic, "scan-shards-150", 150)
	ws := refineWarmStart(d)
	opts := Options{Budget: Modular(d).TotalResources(), Obs: obs.New()}
	s := newSearcher(d, connmat.New(d), &cover.CandidateSet{Parts: ws.Parts, Active: ws.Active}, opts, newScratch())
	checkShardInvariant(t, d.Name, s, s.initial())
}
