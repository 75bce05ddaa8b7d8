package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/indoor"
)

// maxSumObj counts captured clients per candidate over the shared pairTab
// bookkeeping.
type maxSumObj struct {
	tab      pairTab
	ids      []indoor.PartitionID
	captured []int
	decided  []int
}

// newMaxSumObj resets the MaxSum candidate bookkeeping held by sc; see
// newEAState for the reset contract.
func newMaxSumObj(m int, sc *Scratch) *maxSumObj {
	o := &sc.ms
	o.tab.reset(m, &sc.pending)
	return o
}

func (o *maxSumObj) init(cands []indoor.PartitionID) {
	o.ids = cands
	nc := len(cands)
	o.tab.initCands(nc)
	o.captured = resize(o.captured, nc)
	o.decided = resize(o.decided, nc)
}

func (o *maxSumObj) decide(k int, captures bool) {
	o.decided[k]++
	if captures {
		o.captured[k]++
	}
}

func (o *maxSumObj) retrieved(ci, k int, d, gd float64) {
	o.tab.add(ci, k, d)
}

func (o *maxSumObj) clientPruned(ci int, dNN float64) {
	t := &o.tab
	t.clientDone[ci] = true
	t.stampRow(ci)
	for k := 0; k < t.nc; k++ {
		if t.rowHas(k) {
			if t.rowDone[k] {
				continue
			}
			o.decide(k, t.rowDist[k] < dNN)
			continue
		}
		o.decide(k, false)
	}
}

func (o *maxSumObj) boundAdvanced(gd float64) {
	// Unpruned client: nearest existing facility beyond gd >= d, so the
	// candidate strictly captures.
	o.tab.drain(gd, func(k int, d float64) { o.decide(k, true) })
}

func (o *maxSumObj) answer(gd float64) (int, bool) {
	m := o.tab.m
	best, bestCount := -1, -1
	for k := range o.captured {
		if o.decided[k] != m {
			continue
		}
		// Equal capture counts resolve to the lowest candidate ID — the
		// tie-break every answer path shares.
		if o.captured[k] > bestCount || (o.captured[k] == bestCount && best >= 0 && o.ids[k] < o.ids[best]) {
			best, bestCount = k, o.captured[k]
		}
	}
	if best < 0 {
		return -1, false
	}
	if math.IsInf(gd, 1) {
		return best, true
	}
	for k := range o.captured {
		if k == best {
			continue
		}
		ub := o.captured[k] + (m - o.decided[k])
		// An undecided candidate that could still tie the best count is only
		// a threat when it would win the lowest-ID tie-break.
		if ub > bestCount || (ub == bestCount && o.ids[k] < o.ids[best]) {
			return -1, false
		}
	}
	return best, true
}
