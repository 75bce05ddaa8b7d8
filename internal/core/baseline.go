package core

import (
	"context"
	"math"
	"sort"
	"time"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// solveBaseline is the baseline implementation with an optional span
// recorder. Work accounting charges the baseline on the same events as the
// efficient approach: every exact point-to-partition distance computation
// (including those inside each per-client NN search) counts one
// DistanceCalc, every NN-search dequeue one QueuePop, and every
// materialized (client, candidate) pair one Retrieval.
func solveBaseline(ctx context.Context, t *vip.Tree, q *Query, rec obs.Recorder) (Result, error) {
	m := len(q.Clients)
	// Checkpoints poll ctx.Err() only when the context can be cancelled, so
	// the background-context path is identical to the plain solver.
	poll := ctx != nil && ctx.Done() != nil
	cancelled := func() error {
		if !poll {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return faults.Cancelled(err)
		}
		return nil
	}
	feSet := vip.NewFacilitySet(t.Venue(), q.Existing)
	res := Result{Answer: indoor.NoPartition}

	// emit forwards one span event (with the counters snapshot) to the
	// recorder; the disabled path is a nil comparison at each call site.
	var obsStart time.Time
	if rec != nil {
		obsStart = time.Now()
	}
	emit := func(stage obs.Stage, gd float64) {
		rec.Event(obs.Span{
			Stage:         stage,
			Elapsed:       time.Since(obsStart),
			DistanceCalcs: res.Stats.DistanceCalcs,
			Retrievals:    res.Stats.Retrievals,
			QueuePops:     res.Stats.QueuePops,
			PrunedClients: res.Stats.PrunedClients,
			Gd:            gd,
		})
	}

	// Step 1: nearest existing facility for every client, sorted by
	// descending distance (the paper's list Ls). Each search's internal
	// exact distance computations and dequeues are charged to the query,
	// so Figure 1's cross-solver comparison counts the same events.
	type entry struct {
		client int
		dist   float64
	}
	var search vip.SearchStats
	ls := make([]entry, m)
	for i, c := range q.Clients {
		if err := cancelled(); err != nil {
			return Result{}, err
		}
		_, d := t.NearestFacilityCounted(c.Loc, c.Part, feSet, &search)
		ls[i] = entry{client: i, dist: d}
		if rec != nil {
			res.Stats.DistanceCalcs = search.DistanceCalcs
			res.Stats.QueuePops = search.QueuePops
			emit(obs.StageLocate, d)
			emit(obs.StageQueuePop, d)
		}
	}
	res.Stats.DistanceCalcs = search.DistanceCalcs
	res.Stats.QueuePops = search.QueuePops
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].dist > ls[j].dist })

	// dist returns iDist(client, candidate), computing and caching it with
	// a standalone VIP-tree distance query (the baseline recomputes from
	// scratch per pair; the cache only avoids re-measuring the very same
	// pair, which the original algorithm stores in CA too).
	cache := make(map[int64]float64)
	dist := func(ci int, n indoor.PartitionID) float64 {
		key := int64(ci)<<32 | int64(n)
		if d, ok := cache[key]; ok {
			return d
		}
		c := q.Clients[ci]
		d := t.DistPointToPartition(c.Loc, c.Part, n)
		cache[key] = d
		res.Stats.DistanceCalcs++
		res.Stats.Retrievals++
		return d
	}

	// Step 2: initial candidate answer set from the worst-off client.
	ca := make([]indoor.PartitionID, 0, len(q.Candidates))
	for _, n := range q.Candidates {
		if err := cancelled(); err != nil {
			return Result{}, err
		}
		if dist(ls[0].client, n) < ls[0].dist {
			ca = append(ca, n)
		}
	}
	res.Stats.ConsideredClients = 1
	caPrev := ca

	// Step 3: refinement, one client at a time in descending NN distance.
	i := 1
	for i < m && len(ca) > 1 {
		if err := cancelled(); err != nil {
			return Result{}, err
		}
		caPrev = ca
		li := ls[i]
		// Pruning 3a: keep candidates closer to client i than its nearest
		// existing facility.
		var next []indoor.PartitionID
		for _, n := range ca {
			if dist(li.client, n) < li.dist {
				next = append(next, n)
			}
		}
		ca = next
		// Pruning 3b: drop candidates farther than li.dist from any
		// previously considered client.
		for j := 0; j < i && len(ca) > 0; j++ {
			var kept []indoor.PartitionID
			for _, n := range ca {
				if dist(ls[j].client, n) <= li.dist {
					kept = append(kept, n)
				}
			}
			ca = kept
		}
		i++
		res.Stats.ConsideredClients++
		if rec != nil {
			// One span per refinement round: the baseline's analog of a
			// pruning pass, at the round's NN-distance horizon.
			emit(obs.StagePrune, li.dist)
		}
	}

	// Step 5: Find_Ans.
	if rec != nil {
		emit(obs.StageAnswerCheck, ls[0].dist)
	}
	if len(ca) == 0 {
		ca = caPrev
	}
	if len(ca) == 0 {
		// No candidate improves even the worst-off client.
		res.Stats.RetainedBytes = baselineRetained(len(cache), m)
		return Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN(), Stats: res.Stats}, nil
	}
	considered := i
	best, bestObj := indoor.NoPartition, math.Inf(1)
	for _, n := range ca {
		if err := cancelled(); err != nil {
			return Result{}, err
		}
		obj := 0.0
		for j := 0; j < considered; j++ {
			d := math.Min(ls[j].dist, dist(ls[j].client, n))
			if d > obj {
				obj = d
			}
		}
		// Equal objectives resolve to the lowest candidate ID, the
		// tie-break every answer path shares.
		if obj < bestObj || (obj == bestObj && n < best) {
			best, bestObj = n, obj
		}
	}
	// Complete the objective over unconsidered clients. Their contribution
	// min(dNN, d) is bounded by their nearest-existing distance, and the
	// list is sorted descending, so the scan stops at the first client
	// whose status-quo distance cannot raise the maximum.
	for j := considered; j < m; j++ {
		if ls[j].dist <= bestObj {
			break
		}
		if d := math.Min(ls[j].dist, dist(ls[j].client, best)); d > bestObj {
			bestObj = d
		}
	}
	if bestObj >= ls[0].dist {
		res.Stats.RetainedBytes = baselineRetained(len(cache), m)
		return Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN(), Stats: res.Stats}, nil
	}
	res.Found = true
	res.Answer = best
	res.Objective = bestObj
	res.Stats.RetainedBytes = baselineRetained(len(cache), m)
	return res, nil
}

// baselineRetained estimates the baseline's simultaneously-held state: the
// sorted client list and the per-pair distance cache. Each NN search and
// distance computation builds throwaway VIP-tree state that is released
// before the next client, matching the paper's observation that the
// baseline needs far less memory.
func baselineRetained(cacheEntries, clients int) int {
	const mapEntry = 48
	return cacheEntries*mapEntry + clients*24
}
