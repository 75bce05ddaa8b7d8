package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// MultiResult is the outcome of selecting several new facilities at once.
// A plain value owned by the caller.
type MultiResult struct {
	// Answers are the chosen candidates in selection order.
	Answers []indoor.PartitionID
	// Objective is the MinMax objective after establishing all Answers.
	Objective float64
	// PerStep[i] is the objective after the first i+1 selections.
	PerStep []float64
	Stats   Stats
}

// noMultiResult is the canonical "no selection possible" MultiResult: no
// answers and a NaN objective, matching the single-facility noResult
// convention.
func noMultiResult() MultiResult { return MultiResult{Objective: math.NaN()} }

// SolveBruteMulti computes the exact joint k-facility MinMax optimum by
// enumerating every size-k candidate subset on the door-to-door graph.
// Exponential in k; intended for tests and small instances. Call-local
// state; concurrent calls are safe.
func SolveBruteMulti(g *d2d.Graph, q *Query, k int) MultiResult {
	res := MultiResult{Objective: math.NaN()}
	if k <= 0 || len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return res
	}
	distTo, nnExist := clientFacilityDistances(g, q)
	nc := len(q.Candidates)
	if k > nc {
		k = nc
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := math.Inf(1)
	var bestSet []int
	for {
		obj := 0.0
		for ci := range q.Clients {
			d := nnExist[ci]
			for _, j := range idx {
				if v := distTo[ci][len(q.Existing)+j]; v < d {
					d = v
				}
			}
			if d > obj {
				obj = d
			}
		}
		// Combinations are enumerated in lexicographic index order, so on an
		// exact objective tie the first subset found is kept: the selection
		// is the lexicographically smallest candidate-index set, which makes
		// the joint oracle deterministic.
		if obj < best {
			best = obj
			bestSet = append(bestSet[:0], idx...)
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == nc-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	for _, j := range bestSet {
		res.Answers = append(res.Answers, q.Candidates[j])
	}
	res.Objective = best
	return res
}
