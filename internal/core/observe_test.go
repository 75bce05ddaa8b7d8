package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// observeFixture builds a mid-size venue and a query that exercises client
// pruning and several d_low advances, so every instrumented stage fires.
func observeFixture() (*vip.Tree, *Query) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
	rng := rand.New(rand.NewSource(99))
	q := randomQuery(v, rng, 4, 5, 20)
	return tree, q
}

func TestObservedSolversMatchUnobserved(t *testing.T) {
	tree, q := observeFixture()
	ctx := context.Background()

	plain := mustExec(tree, q, Options{}).MinMax
	var rec obs.Counting
	er, err := Exec(ctx, tree, q, Options{Recorder: &rec})
	got := er.MinMax
	if err != nil {
		t.Fatalf("observed minmax: %v", err)
	}
	if got != plain {
		t.Fatalf("observed %+v, plain %+v", got, plain)
	}
	if rec.Counts.Total() == 0 {
		t.Fatal("observed minmax recorded no span events")
	}

	plainBL := mustExec(tree, q, Options{Objective: ObjBaseline}).MinMax
	var recBL obs.Counting
	er, err = Exec(ctx, tree, q, Options{Objective: ObjBaseline, Recorder: &recBL})
	gotBL := er.MinMax
	if err != nil {
		t.Fatalf("observed baseline: %v", err)
	}
	if gotBL.Found != plainBL.Found || gotBL.Answer != plainBL.Answer || gotBL.Objective != plainBL.Objective {
		t.Fatalf("observed baseline %+v, plain %+v", gotBL, plainBL)
	}
	if recBL.Counts.Total() == 0 {
		t.Fatal("observed baseline recorded no span events")
	}

	plainMD := mustExec(tree, q, Options{Objective: ObjMinDist}).Ext
	var recMD obs.Counting
	er, err = Exec(ctx, tree, q, Options{Objective: ObjMinDist, Recorder: &recMD})
	gotMD := er.Ext
	if err != nil {
		t.Fatalf("observed mindist: %v", err)
	}
	if gotMD.Answer != plainMD.Answer || gotMD.Objective != plainMD.Objective {
		t.Fatalf("observed mindist %+v, plain %+v", gotMD, plainMD)
	}
	if recMD.Counts.Total() == 0 {
		t.Fatal("observed mindist recorded no span events")
	}

	plainMS := mustExec(tree, q, Options{Objective: ObjMaxSum}).Ext
	var recMS obs.Counting
	er, err = Exec(ctx, tree, q, Options{Objective: ObjMaxSum, Recorder: &recMS})
	gotMS := er.Ext
	if err != nil {
		t.Fatalf("observed maxsum: %v", err)
	}
	if gotMS.Answer != plainMS.Answer || gotMS.Objective != plainMS.Objective {
		t.Fatalf("observed maxsum %+v, plain %+v", gotMS, plainMS)
	}
	if recMS.Counts.Total() == 0 {
		t.Fatal("observed maxsum recorded no span events")
	}

	plainTK := mustExec(tree, q, Options{Objective: ObjTopK, K: 3}).TopK
	var recTK obs.Counting
	er, err = Exec(ctx, tree, q, Options{Objective: ObjTopK, K: 3, Recorder: &recTK})
	gotTK := er.TopK
	if err != nil {
		t.Fatalf("observed topk: %v", err)
	}
	if len(gotTK) != len(plainTK) {
		t.Fatalf("observed topk returned %d candidates, plain %d", len(gotTK), len(plainTK))
	}
	for i := range gotTK {
		if gotTK[i] != plainTK[i] {
			t.Fatalf("rank %d: observed %+v, plain %+v", i, gotTK[i], plainTK[i])
		}
	}
	if recTK.Counts.Total() == 0 {
		t.Fatal("observed topk recorded no span events")
	}
}

// TestObservedStagesCovered asserts the solver-side stages (locate,
// queue-pop, prune, answer-check) all fire on a workload with pruning.
// StageValidate belongs to the serving layer and is not expected here.
func TestObservedStagesCovered(t *testing.T) {
	tree, q := observeFixture()
	solvers := map[string]func(obs.Recorder) error{
		"efficient": func(r obs.Recorder) error {
			_, err := Exec(context.Background(), tree, q, Options{Recorder: r})
			return err
		},
		"mindist": func(r obs.Recorder) error {
			_, err := Exec(context.Background(), tree, q, Options{Objective: ObjMinDist, Recorder: r})
			return err
		},
		"maxsum": func(r obs.Recorder) error {
			_, err := Exec(context.Background(), tree, q, Options{Objective: ObjMaxSum, Recorder: r})
			return err
		},
		"baseline": func(r obs.Recorder) error {
			_, err := Exec(context.Background(), tree, q, Options{Objective: ObjBaseline, Recorder: r})
			return err
		},
	}
	for name, run := range solvers {
		t.Run(name, func(t *testing.T) {
			var rec obs.Counting
			if err := run(&rec); err != nil {
				t.Fatalf("solver: %v", err)
			}
			for _, st := range []obs.Stage{obs.StageLocate, obs.StageQueuePop, obs.StagePrune, obs.StageAnswerCheck} {
				if rec.Counts[st] == 0 {
					t.Errorf("stage %s: zero events", st)
				}
			}
		})
	}
}

// TestObservedSpanMonotonic asserts spans carry monotonically non-decreasing
// elapsed times and work counters, the contract ARCHITECTURE.md §8 states.
func TestObservedSpanMonotonic(t *testing.T) {
	tree, q := observeFixture()
	var tr obs.Trace
	if _, err := Exec(context.Background(), tree, q, Options{Recorder: &tr}); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Elapsed < spans[i-1].Elapsed {
			t.Fatalf("span %d elapsed %v < previous %v", i, spans[i].Elapsed, spans[i-1].Elapsed)
		}
		if spans[i].DistanceCalcs < spans[i-1].DistanceCalcs {
			t.Fatalf("span %d DistanceCalcs went backwards: %d < %d", i, spans[i].DistanceCalcs, spans[i-1].DistanceCalcs)
		}
		if spans[i].QueuePops < spans[i-1].QueuePops {
			t.Fatalf("span %d QueuePops went backwards: %d < %d", i, spans[i].QueuePops, spans[i-1].QueuePops)
		}
		if spans[i].PrunedClients < spans[i-1].PrunedClients {
			t.Fatalf("span %d PrunedClients went backwards: %d < %d", i, spans[i].PrunedClients, spans[i-1].PrunedClients)
		}
	}
}

// TestNoopRecorderZeroAllocOverhead is the disabled-path guarantee: solving
// with a no-op recorder allocates exactly as much as solving with none.
// The CI benchmark smoke step runs this test by name.
func TestNoopRecorderZeroAllocOverhead(t *testing.T) {
	tree, q := observeFixture()
	ctx := context.Background()
	base := testing.AllocsPerRun(50, func() {
		if _, err := Exec(ctx, tree, q, Options{}); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	})
	withNop := testing.AllocsPerRun(50, func() {
		if _, err := Exec(ctx, tree, q, Options{Recorder: obs.Nop{}}); err != nil {
			t.Fatalf("Exec with obs.Nop: %v", err)
		}
	})
	if withNop > base {
		t.Fatalf("no-op recorder adds allocations: %v allocs/op with obs.Nop, %v without", withNop, base)
	}
}

func BenchmarkSolve(b *testing.B) {
	tree, q := observeFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustExec(tree, q, Options{})
	}
}

func BenchmarkSolveObservedNop(b *testing.B) {
	tree, q := observeFixture()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(ctx, tree, q, Options{Recorder: obs.Nop{}}); err != nil {
			b.Fatal(err)
		}
	}
}
