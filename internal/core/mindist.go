package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/indoor"
)

// minDistObj accumulates exact per-candidate totals over the shared pairTab
// bookkeeping.
type minDistObj struct {
	tab          pairTab
	ids          []indoor.PartitionID
	sumExact     []float64
	settledCount []int
	capturedAny  []bool
	dNN          []float64
}

// newMinDistObj resets the MinDist candidate bookkeeping held by sc; see
// newEAState for the reset contract.
func newMinDistObj(m int, sc *Scratch) *minDistObj {
	o := &sc.md
	o.tab.reset(m, &sc.pending)
	o.dNN = resize(o.dNN, m)
	return o
}

// init sizes the per-candidate accumulators and records the candidate IDs
// (index-aligned with the traversal's deduplicated candidate list) for the
// lowest-ID tie-break.
func (o *minDistObj) init(cands []indoor.PartitionID) {
	nc := len(cands)
	o.ids = cands
	o.tab.initCands(nc)
	o.sumExact = resize(o.sumExact, nc)
	o.settledCount = resize(o.settledCount, nc)
	o.capturedAny = resize(o.capturedAny, nc)
}

func (o *minDistObj) settle(k int, contribution float64, captured bool) {
	o.sumExact[k] += contribution
	o.settledCount[k]++
	if captured {
		o.capturedAny[k] = true
	}
}

func (o *minDistObj) retrieved(ci, k int, d, gd float64) {
	o.tab.add(ci, k, d)
}

func (o *minDistObj) clientPruned(ci int, dNN float64) {
	o.dNN[ci] = dNN
	t := &o.tab
	t.clientDone[ci] = true
	t.stampRow(ci)
	for k := 0; k < t.nc; k++ {
		if t.rowHas(k) {
			if t.rowDone[k] {
				continue
			}
			if d := t.rowDist[k]; d < dNN {
				o.settle(k, d, true)
				continue
			}
		}
		o.settle(k, dNN, false)
	}
}

func (o *minDistObj) boundAdvanced(gd float64) {
	// An unpruned client's true nearest-existing distance exceeds gd >= d,
	// so each drained pair contributes d and strictly captures the client.
	o.tab.drain(gd, func(k int, d float64) { o.settle(k, d, true) })
}

func (o *minDistObj) answer(gd float64) (int, bool) {
	m := o.tab.m
	best, bestTotal := -1, math.Inf(1)
	for k := range o.sumExact {
		if o.settledCount[k] != m {
			continue
		}
		// Equal totals resolve to the lowest candidate ID — the tie-break
		// every answer path shares.
		if o.sumExact[k] < bestTotal || (o.sumExact[k] == bestTotal && best >= 0 && o.ids[k] < o.ids[best]) {
			best, bestTotal = k, o.sumExact[k]
		}
	}
	if best < 0 {
		return -1, false
	}
	if math.IsInf(gd, 1) {
		return best, true
	}
	for k := range o.sumExact {
		if k == best {
			continue
		}
		lb := o.sumExact[k] + float64(m-o.settledCount[k])*gd
		// An unsettled candidate that could still tie the best total is only
		// a threat when it would win the lowest-ID tie-break.
		if lb < bestTotal || (lb == bestTotal && o.ids[k] < o.ids[best]) {
			return -1, false
		}
	}
	return best, true
}
