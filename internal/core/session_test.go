package core

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestSessionMatchesOneShot: a warm session must return exactly what the
// one-shot solver returns for a stream of changing workloads (the moving
// client scenario).
func TestSessionMatchesOneShot(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	sess := NewSession(tree)
	rng := rand.New(rand.NewSource(404))
	for round := 0; round < 20; round++ {
		q := randomQuery(v, rng, 2, 5, 15+round)
		warm := mustSessionExec(sess, q, Options{}).MinMax
		cold := mustExec(tree, q, Options{}).MinMax
		if warm.Found != cold.Found || warm.Answer != cold.Answer {
			t.Fatalf("round %d: session %+v != one-shot %+v", round, warm, cold)
		}
		if warm.Found && !almostEq(warm.Objective, cold.Objective) {
			t.Fatalf("round %d: objectives differ: %v vs %v", round, warm.Objective, cold.Objective)
		}
		checkAgainstBrute(t, q, warm, SolveBrute(g, q))
	}
	if sess.CachedPartitions() == 0 {
		t.Fatal("session cached nothing")
	}
}

func TestSessionTopK(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	sess := NewSession(tree)
	rng := rand.New(rand.NewSource(9))
	q := randomQuery(v, rng, 2, 6, 20)
	a := mustSessionExec(sess, q, Options{Objective: ObjTopK, K: 3}).TopK
	b := mustExec(tree, q, Options{Objective: ObjTopK, K: 3}).TopK
	if len(a) != len(b) {
		t.Fatalf("session top-k %v != one-shot %v", a, b)
	}
	for i := range a {
		if !almostEq(a[i].Objective, b[i].Objective) {
			t.Fatalf("rank %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if got := mustSessionExec(sess, q, Options{Objective: ObjTopK, K: 0}).TopK; got != nil {
		t.Fatal("k=0 must return nil")
	}
}

// TestSessionCacheGrowth: the cache covers exactly the client partitions
// seen so far.
func TestSessionCacheGrowth(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	sess := NewSession(tree)
	q := &Query{
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{3},
		Clients:    []Client{clientIn(v, 2, 0)},
	}
	mustSessionExec(sess, q, Options{})
	if got := sess.CachedPartitions(); got != 1 {
		t.Fatalf("CachedPartitions = %d, want 1", got)
	}
}
