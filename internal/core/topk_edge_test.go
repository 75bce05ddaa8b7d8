package core

import (
	"sort"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// bruteRanking is the top-k oracle: every candidate strictly below the status
// quo, sorted by (objective, candidate ID) — the same order finishTopK
// promises — truncated to k.
func bruteRanking(g *d2d.Graph, q *Query, k int) []RankedCandidate {
	br := SolveBrute(g, q)
	var all []RankedCandidate
	for j, n := range q.Candidates {
		if br.Objectives[j] < br.StatusQuo {
			all = append(all, RankedCandidate{Candidate: n, Objective: br.Objectives[j]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Objective != all[j].Objective {
			return all[i].Objective < all[j].Objective
		}
		return all[i].Candidate < all[j].Candidate
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestTopKEdgeSemantics pins the edge behavior of ObjTopK: k = 0 yields
// nil even with live candidates, k > |Fn| returns every improving candidate
// (no padding, no panic), and k = |Fn| is the full ranking.
func TestTopKEdgeSemantics(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:1],
		Candidates: rooms[1:7],
		Clients: []Client{
			{ID: 0, Part: 0, Loc: v.RandomPointIn(0, 0.3, 0.5)},
			{ID: 1, Part: rooms[8], Loc: v.RandomPointIn(rooms[8], 0.5, 0.5)},
		},
	}

	if got := mustExec(tree, q, Options{Objective: ObjTopK, K: 0}).TopK; got != nil {
		t.Fatalf("k=0 with live candidates: got %v, want nil", got)
	}

	full := bruteRanking(g, q, len(q.Candidates))
	if len(full) == 0 {
		t.Fatal("test setup: no improving candidate")
	}
	for _, k := range []int{len(q.Candidates), len(q.Candidates) + 5, 1 << 16} {
		got := mustExec(tree, q, Options{Objective: ObjTopK, K: k}).TopK
		if len(got) != len(full) {
			t.Fatalf("k=%d: got %d results, want all %d improving candidates", k, len(got), len(full))
		}
		for i := range got {
			if got[i].Candidate != full[i].Candidate || !almostEq(got[i].Objective, full[i].Objective) {
				t.Fatalf("k=%d rank %d: got %+v, want %+v", k, i, got[i], full[i])
			}
		}
	}
}

// TestTopKDuplicateObjectivesStablePrefix builds exact ties — two candidate
// rooms mirror-placed around a client on the corridor's symmetry axis, with
// all coordinates multiples of 0.5 so the distances are bit-equal — and
// checks that equal objectives rank by ascending candidate ID and that
// top-k(k') is a prefix of top-k(k) for every k' < k.
func TestTopKDuplicateObjectivesStablePrefix(t *testing.T) {
	b := indoor.NewBuilder("topk-ties")
	corr := b.AddCorridor(geom.R(0, 10, 16, 14, 0), "corr")
	var rooms []indoor.PartitionID
	for i := 0; i < 4; i++ {
		x := float64(i) * 4
		r := b.AddRoom(geom.R(x, 4, x+4, 10, 0), "", "")
		b.AddDoor(geom.Pt(x+2, 10, 0), r, corr)
		rooms = append(rooms, r)
	}
	v := b.MustBuild()
	q := &Query{
		// Farthest room keeps the status quo high.
		Existing: []indoor.PartitionID{rooms[3]},
		// All four rooms compete; rooms[0] and rooms[3] mirror around the
		// client, as do rooms[1] and rooms[2].
		Candidates: rooms[:3],
		Clients:    []Client{{ID: 0, Part: corr, Loc: geom.Pt(8, 12, 0)}},
	}
	tree := vip.MustBuild(v, vip.DefaultOptions())

	full := mustExec(tree, q, Options{Objective: ObjTopK, K: len(q.Candidates)}).TopK
	if len(full) < 2 {
		t.Fatalf("want >=2 ranked candidates, got %v", full)
	}
	// rooms[1] (door at x=6) and rooms[2] (door at x=10) are equidistant
	// from the client at x=8: exact duplicate objectives.
	if full[0].Objective != full[1].Objective {
		t.Fatalf("want duplicate objectives at front, got %v", full)
	}
	if full[0].Candidate != rooms[1] || full[1].Candidate != rooms[2] {
		t.Fatalf("duplicate objectives must rank by ascending ID: got %v, want [%d %d ...]",
			full, rooms[1], rooms[2])
	}
	for i := 1; i < len(full); i++ {
		if full[i].Objective == full[i-1].Objective && full[i].Candidate < full[i-1].Candidate {
			t.Fatalf("rank %d breaks the ID order on equal objectives: %v", i, full)
		}
	}
	for k := 1; k < len(full); k++ {
		prefix := mustExec(tree, q, Options{Objective: ObjTopK, K: k}).TopK
		if len(prefix) != k {
			t.Fatalf("k=%d: got %d results", k, len(prefix))
		}
		for i := range prefix {
			if prefix[i] != full[i] {
				t.Fatalf("top-%d is not a prefix of the full ranking: %v vs %v", k, prefix, full)
			}
		}
	}
}
