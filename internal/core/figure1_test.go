package core

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/vip"
)

// figure1Venue builds a venue in the spirit of the paper's Figure 1: 22
// partitions in three clusters joined by a hallway, with doors between
// neighboring rooms. The exact floor plan of the figure is not published;
// this venue matches its scale (22 partitions) and topology style.
func figure1Venue(t *testing.T) *indoor.Venue {
	t.Helper()
	b := indoor.NewBuilder("figure-1")
	// Hallway spine (p7-like): one long corridor.
	hall := b.AddCorridor(geom.R(0, 20, 105, 26, 0), "hall")
	// Cluster 1: six rooms above the west end (p1..p6).
	// Cluster 2: seven rooms below the middle (p8..p13 plus one).
	// Cluster 3: eight rooms above the east end (p14..p22 minus one).
	var rooms []indoor.PartitionID
	addRow := func(count int, x0, y0, w, h float64, above bool, tag string) []indoor.PartitionID {
		var out []indoor.PartitionID
		for i := 0; i < count; i++ {
			x := x0 + float64(i)*w
			r := b.AddRoom(geom.R(x, y0, x+w, y0+h, 0), tag, "")
			out = append(out, r)
			doorY := y0
			if above {
				doorY = y0 // bottom edge touches hallway top
			} else {
				doorY = y0 + h // top edge touches hallway bottom
			}
			b.AddDoor(geom.Pt(x+w/2, doorY, 0), r, hall)
			if i > 0 {
				b.AddDoor(geom.Pt(x, y0+h/2, 0), out[i-1], r)
			}
		}
		return out
	}
	rooms = append(rooms, addRow(6, 0, 26, 12, 10, true, "c1")...)
	rooms = append(rooms, addRow(7, 10, 10, 12, 10, false, "c2")...)
	rooms = append(rooms, addRow(8, 72, 26, 4, 8, true, "c3")...)
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if v.NumPartitions() != 22 {
		t.Fatalf("figure-1 venue has %d partitions, want 22", v.NumPartitions())
	}
	_ = rooms
	return v
}

// TestFigure1Scenario mirrors the paper's running example: 60 clients, 4
// existing facilities, 13 candidate locations.
func TestFigure1Scenario(t *testing.T) {
	v := figure1Venue(t)
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 7, NodeFanout: 3, Vivid: true})
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(2023))

	rooms := v.Rooms()
	perm := rng.Perm(len(rooms))
	q := &Query{}
	for i := 0; i < 4; i++ {
		q.Existing = append(q.Existing, rooms[perm[i]])
	}
	for i := 4; i < 17; i++ {
		q.Candidates = append(q.Candidates, rooms[perm[i]])
	}
	for i := 0; i < 60; i++ {
		p := rooms[rng.Intn(len(rooms))]
		q.Clients = append(q.Clients, Client{
			ID: int32(i), Part: p,
			Loc: v.RandomPointIn(p, rng.Float64(), rng.Float64()),
		})
	}
	want := SolveBrute(g, q)
	eff := mustExec(tree, q, Options{}).MinMax
	base := mustExec(tree, q, Options{Objective: ObjBaseline}).MinMax
	checkAgainstBrute(t, q, eff, want)
	checkAgainstBrute(t, q, base, want)

	// Clients located inside existing facilities must have been pruned in
	// the preamble (the paper prunes c1, c17, c18, c52, c58, c59).
	inExisting := 0
	isExist := map[indoor.PartitionID]bool{}
	for _, f := range q.Existing {
		isExist[f] = true
	}
	for _, c := range q.Clients {
		if isExist[c.Part] {
			inExisting++
		}
	}
	if eff.Stats.PrunedClients < inExisting {
		t.Errorf("pruned %d clients, at least the %d inside existing facilities expected",
			eff.Stats.PrunedClients, inExisting)
	}

	// The efficient approach must do substantially fewer exact distance
	// computations than the brute force's |C| x |F| grid.
	if eff.Stats.DistanceCalcs >= want.Stats.DistanceCalcs {
		t.Errorf("efficient approach used %d distance calcs, brute force %d",
			eff.Stats.DistanceCalcs, want.Stats.DistanceCalcs)
	}
}

// TestFigure1AllObjectives runs all three objectives on the same instance
// and cross-checks against their oracles.
func TestFigure1AllObjectives(t *testing.T) {
	v := figure1Venue(t)
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(7))
	q := randomQuery(v, rng, 4, 13, 60)

	checkAgainstBrute(t, q, mustExec(tree, q, Options{}).MinMax, SolveBrute(g, q))
	checkExtAgainstBrute(t, "mindist", q, mustExec(tree, q, Options{Objective: ObjMinDist}).Ext, SolveBruteMinDist(g, q))
	checkExtAgainstBrute(t, "maxsum", q, mustExec(tree, q, Options{Objective: ObjMaxSum}).Ext, SolveBruteMaxSum(g, q))
}
