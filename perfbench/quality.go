package main

import (
	"fmt"

	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/partition"
)

// quality averages, over the schemes a run verified, each proposed
// scheme's total reconfiguration frames (the paper's objective) as a
// share of the frames of the modular scheme for the same design, one
// region per module, which the benchmark costs itself. Workloads take it
// over fixedCorpus, so it moves only when the program's answers do.
type quality struct {
	sum float64
	n   int
}

// add records one verified scheme of d with the given total frames.
func (q *quality) add(d *design.Design, total int) {
	_, mod := cost.Evaluate(partition.Modular(d))
	if mod.Total <= 0 {
		return
	}
	q.sum += float64(total) / float64(mod.Total)
	q.n++
}

// metric is the mean share, with the number of schemes it was taken over.
func (q *quality) metric() metric {
	if q.n == 0 {
		return metric{0, "no verified scheme"}
	}
	return metric{q.sum / float64(q.n), fmt.Sprintf("mean over %d verified schemes of total frames / modular scheme's", q.n)}
}
