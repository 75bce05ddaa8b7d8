package core

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// pruneFixture builds a small state with two clients for driving the prune
// heap directly. White-box: the tests below exercise the lazy-heap
// staleness invariant (prune acts only on a client's live key, the one
// equal to its current bestExist) without needing a venue geometry that
// happens to produce re-pushes.
func pruneFixture(t *testing.T) *eaState {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:1],
		Candidates: rooms[1:2],
		Clients:    []Client{clientIn(v, rooms[2], 0), clientIn(v, rooms[3], 1)},
	}
	return newEAState(tree, q, NewScratch())
}

// TestPruneSkipsStaleLargerKey: a key pushed before the client's bestExist
// improved is outdated — pruning against it would use a distance larger
// than the client's true nearest-existing bound. prune must skip it and
// leave the client active.
func TestPruneSkipsStaleLargerKey(t *testing.T) {
	s := pruneFixture(t)
	s.bestExist[0] = 5
	s.pruneHeap.Push(0, 5)
	// The client's knowledge improved after the push (smaller retrieval),
	// but the re-push was lost: the heap holds only the stale key.
	s.bestExist[0] = 2

	s.prune(6)
	if !s.active[0] {
		t.Fatal("client pruned against a stale key (5) that no longer equals bestExist (2)")
	}
	if s.res.Stats.PrunedClients != 0 {
		t.Fatalf("PrunedClients = %d, want 0", s.res.Stats.PrunedClients)
	}
}

// TestPruneRePushedClientPrunedOnce: the normal lazy-heap flow — a client
// re-pushed with a smaller distance has two keys in the heap. The live
// (smaller) one prunes the client exactly once; the stale (larger) one is
// skipped when it surfaces later.
func TestPruneRePushedClientPrunedOnce(t *testing.T) {
	s := pruneFixture(t)
	s.bestExist[0] = 5
	s.pruneHeap.Push(0, 5)
	s.bestExist[0] = 2
	s.pruneHeap.Push(0, 2)

	// Bound covers only the live key: the client is pruned at 2.
	s.prune(3)
	if s.active[0] {
		t.Fatal("client not pruned against its live key (2 <= bound 3)")
	}
	if s.res.Stats.PrunedClients != 1 {
		t.Fatalf("PrunedClients = %d, want 1", s.res.Stats.PrunedClients)
	}

	// Bound now covers the stale key too: it must be skipped, not
	// double-counted.
	s.prune(10)
	if s.res.Stats.PrunedClients != 1 {
		t.Fatalf("after draining stale key: PrunedClients = %d, want 1", s.res.Stats.PrunedClients)
	}
}

// TestExtPruneStaleKeyParity: extState.prune follows the same invariant.
func TestExtPruneStaleKeyParity(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:1],
		Candidates: rooms[1:2],
		Clients:    []Client{clientIn(v, rooms[2], 0), clientIn(v, rooms[3], 1)},
	}
	var stats Stats
	sc := NewScratch()
	obj := newMinDistObj(len(q.Clients), sc)
	obj.init(q.Candidates[:1])
	s := newExtState(tree, q, obj, &stats, sc)

	s.bestExist[0] = 5
	s.pruneHeap.Push(0, 5)
	s.bestExist[0] = 2
	s.prune(6)
	if !s.active[0] {
		t.Fatal("extState pruned against a stale key")
	}

	s.pruneHeap.Push(0, 2)
	s.prune(6)
	if s.active[0] {
		t.Fatal("extState did not prune against the live key")
	}
	if stats.PrunedClients != 1 {
		t.Fatalf("PrunedClients = %d, want 1", stats.PrunedClients)
	}
}

// TestEqualGdTieBreakDeterministic: when several candidates tie on the
// optimal objective, the solver's pick is a pure function of the query —
// repeated runs return the same answer, and the answer tracks the
// candidate list (reversing the list may flip which tying candidate wins,
// but each ordering is itself stable).
func TestEqualGdTieBreakDeterministic(t *testing.T) {
	// Corridor3 is mirror-symmetric around its middle room: a client at
	// the middle room's center is exactly equidistant (same floats, not
	// just approximately) from the two end rooms, so with no existing
	// facilities both candidates tie on the MinMax objective.
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{
		Candidates: []indoor.PartitionID{1, 3},
		Clients:    []Client{clientIn(v, 2, 0)},
	}

	first := mustExec(tree, q, Options{}).MinMax
	if !first.Found {
		t.Fatal("expected an improving candidate")
	}
	// Confirm the tie is real: both candidates achieve the optimum.
	c := q.Clients[0]
	d1 := tree.DistPointToPartition(c.Loc, c.Part, q.Candidates[0])
	d3 := tree.DistPointToPartition(c.Loc, c.Part, q.Candidates[1])
	if d1 != d3 {
		t.Fatalf("fixture not tied: objectives %v vs %v", d1, d3)
	}

	for i := 0; i < 20; i++ {
		r := mustExec(tree, q, Options{}).MinMax
		if r.Answer != first.Answer || !almostEq(r.Objective, first.Objective) {
			t.Fatalf("run %d: answer %d (obj %v), first run %d (obj %v)",
				i, r.Answer, r.Objective, first.Answer, first.Objective)
		}
	}

	// The reversed candidate list is also deterministic.
	rev := &Query{
		Existing:   q.Existing,
		Candidates: []indoor.PartitionID{q.Candidates[1], q.Candidates[0]},
		Clients:    q.Clients,
	}
	revFirst := mustExec(tree, rev, Options{}).MinMax
	if !revFirst.Found || !almostEq(revFirst.Objective, first.Objective) {
		t.Fatalf("reversed list: %+v, want objective %v", revFirst, first.Objective)
	}
	for i := 0; i < 20; i++ {
		r := mustExec(tree, rev, Options{}).MinMax
		if r.Answer != revFirst.Answer {
			t.Fatalf("reversed run %d: answer %d, first %d", i, r.Answer, revFirst.Answer)
		}
	}
}
