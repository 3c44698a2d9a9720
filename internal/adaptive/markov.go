package adaptive

import (
	"fmt"
	"math/rand"
)

// MarkovSequence generates a configuration-index sequence from a Markov
// chain with transition matrix p (rows must sum to ~1; self-loops keep
// the system in its current configuration). It is the structured
// counterpart of RandomWalkEvents for workloads whose switching pattern
// is statistical rather than threshold-driven.
func MarkovSequence(seed int64, p [][]float64, n int) ([]int, error) {
	if err := checkStochastic(p); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	cur := rng.Intn(len(p))
	for i := 0; i < n; i++ {
		out[i] = cur
		r := rng.Float64()
		acc := 0.0
		next := cur
		for j, pj := range p[cur] {
			acc += pj
			if r < acc {
				next = j
				break
			}
		}
		cur = next
	}
	return out, nil
}

func checkStochastic(p [][]float64) error {
	n := len(p)
	if n == 0 {
		return fmt.Errorf("adaptive: empty transition matrix")
	}
	for i, row := range p {
		if len(row) != n {
			return fmt.Errorf("adaptive: transition row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("adaptive: negative transition p(%d,%d) = %g", i, j, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("adaptive: transition row %d sums to %g, want 1", i, sum)
		}
	}
	return nil
}

// EstimateWeights builds a transition-weight matrix from an observed
// configuration sequence: entry [i][j] is the empirical frequency of the
// i→j switch among all switches (self-loops excluded). The result is
// normalised to sum to 1 over off-diagonal entries and feeds directly
// into partition.Options.TransitionWeights — closing the loop the
// paper's future work describes: observe the deployed system, then
// re-partition for its real switching distribution.
func EstimateWeights(seq []int, numConfigs int) ([][]float64, error) {
	w := make([][]float64, numConfigs)
	for i := range w {
		w[i] = make([]float64, numConfigs)
	}
	switches := 0
	for k := 1; k < len(seq); k++ {
		a, b := seq[k-1], seq[k]
		if a < 0 || a >= numConfigs || b < 0 || b >= numConfigs {
			return nil, fmt.Errorf("adaptive: sequence entry out of range: %d -> %d", a, b)
		}
		if a == b {
			continue
		}
		w[a][b]++
		switches++
	}
	if switches == 0 {
		return w, nil
	}
	for i := range w {
		for j := range w[i] {
			w[i][j] /= float64(switches)
		}
	}
	return w, nil
}
