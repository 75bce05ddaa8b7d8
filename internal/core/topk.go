package core

import (
	"sort"

	"github.com/indoorspatial/ifls/internal/indoor"
)

// RankedCandidate is one entry of a top-k IFLS answer. A plain value;
// copy freely.
type RankedCandidate struct {
	Candidate indoor.PartitionID
	// Objective is the exact MinMax objective the candidate achieves.
	Objective float64
}

func finishTopK(s *eaState, k int) []RankedCandidate {
	// Order by (objective, candidate ID): equal objectives resolve to the
	// lowest candidate ID, so truncating to k keeps a stable prefix of the
	// full ranking — the tie-break every answer path shares.
	sort.SliceStable(s.ranked, func(i, j int) bool {
		if s.ranked[i].Objective != s.ranked[j].Objective {
			return s.ranked[i].Objective < s.ranked[j].Objective
		}
		return s.ranked[i].Candidate < s.ranked[j].Candidate
	})
	if len(s.ranked) > k {
		// The final d_low step may add several covering candidates at
		// once (they tie on the objective); keep the k best.
		s.ranked = s.ranked[:k]
	}
	return s.ranked
}

// collectCovering records every candidate that covers the remaining
// clients at the current d_low and was not recorded before. Pruned-client
// contributions are below d_low by construction, so d_low is each new
// coverer's exact objective.
func (s *eaState) collectCovering() bool {
	if s.activeCount == 0 {
		// No remaining client can be improved; later candidates cannot
		// improve the status quo either.
		return true
	}
	if s.maxCovered < int32(s.activeCount) {
		return false
	}
	for kIdx, n := range s.q.Candidates {
		if s.covered[kIdx] != int32(s.activeCount) || s.sc.partHas(n, pfRanked) {
			continue
		}
		s.sc.markPart(n, pfRanked)
		s.ranked = append(s.ranked, RankedCandidate{Candidate: n, Objective: s.dlow})
	}
	return len(s.ranked) >= s.topK
}
