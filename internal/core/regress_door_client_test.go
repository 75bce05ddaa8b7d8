package core

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestClientAtCandidateDoorZeroDistance is the minimized regression for the
// first bug the differential harness surfaced (internal/difftest, sweep seed
// 28, shrunk to 3 partitions / 2 doors / 1 client): a client standing exactly
// at the door shared between its corridor and a candidate room is satisfied
// and covered at distance zero in the same dequeue round that flips the
// traversal into its stepping phase. step() only reports progress when d_low
// strictly advances, so the zero-distance activation was never answer-checked;
// the existing facility then arrived at 3.6055, the client was pruned, its
// coverage rolled back, and Solve reported Found=false while baseline and
// brute correctly returned the candidate at objective 0.
//
// The corpus encoding of this case is checked in at
// internal/difftest/testdata/corpus/door-zero-distance-candidate.bin and
// replayed by TestCorpusReplay.
func TestClientAtCandidateDoorZeroDistance(t *testing.T) {
	b := indoor.NewBuilder("diff-28-shrunk")
	p0 := b.AddCorridor(geom.R(0, 10, 12, 14, 0), "corr-L0")
	p1 := b.AddRoom(geom.R(0.5, 14, 8, 20, 0), "N1-L0", "")
	p2 := b.AddRoom(geom.R(8, 14, 12, 20, 0), "N2-L0", "")
	b.AddDoor(geom.Pt(10, 14, 0), p2, p0)
	b.AddDoor(geom.Pt(8, 17, 0), p1, p2)
	v := b.MustBuild()
	q := &Query{
		Existing:   []indoor.PartitionID{p1},
		Candidates: []indoor.PartitionID{p2},
		Clients: []Client{
			{ID: 3, Part: p0, Loc: geom.Pt(10, 14, 0)},
		},
	}
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)

	brute := SolveBrute(g, q)
	if !brute.Found || brute.Answer != p2 || brute.Objective != 0 {
		t.Fatalf("brute sanity: %+v", brute)
	}

	for name, res := range map[string]Result{
		"minmax":   mustExec(tree, q, Options{}).MinMax,
		"baseline": mustExec(tree, q, Options{Objective: ObjBaseline}).MinMax,
	} {
		if !res.Found || res.Answer != p2 || res.Objective != 0 {
			t.Errorf("%s: got %+v, want Found=true Answer=%d Objective=0", name, res, p2)
		}
	}

	// The greedy multi chain starts from the same single-placement solve, so
	// it must pick the candidate too.
	multi := mustExec(tree, q, Options{Objective: ObjMulti, K: 3}).Multi
	if len(multi.Answers) != 1 || multi.Answers[0] != p2 || multi.Objective != 0 {
		t.Errorf("multi: got %+v, want Answers=[%d] Objective=0", multi, p2)
	}

	// Distance-layer sanity: both layers agree the client is at distance 0
	// from the candidate and 3.6055.. from the existing room.
	pt := geom.Pt(10, 14, 0)
	for name, d := range map[string]float64{
		"d2d": g.PointToPartition(pt, p0, p2),
		"vip": tree.DistPointToPartition(pt, p0, p2),
	} {
		if d != 0 {
			t.Errorf("%s point->candidate: got %v, want 0", name, d)
		}
	}
}
