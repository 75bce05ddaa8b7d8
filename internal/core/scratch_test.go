package core

import (
	"context"
	"testing"

	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// scratchQueries builds a mixed bag of queries over one venue: different
// client counts, facility sets, and shapes, so a reused Scratch sees both
// growth and shrink between runs.
func scratchQueries(t *testing.T) (*vip.Tree, []*Query) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	qs := []*Query{
		{
			Existing:   rooms[:2],
			Candidates: rooms[2:6],
			Clients:    []Client{clientIn(v, rooms[6], 0), clientIn(v, rooms[7], 1), clientIn(v, rooms[8], 2)},
		},
		{
			Existing:   rooms[:1],
			Candidates: rooms[1:3],
			Clients:    []Client{clientIn(v, rooms[3], 0)},
		},
		{
			Candidates: rooms[:4],
			Clients: []Client{
				clientIn(v, rooms[4], 0), clientIn(v, rooms[5], 1), clientIn(v, rooms[6], 2),
				clientIn(v, rooms[7], 3), clientIn(v, rooms[8], 4),
			},
		},
		{
			Existing:   rooms[5:8],
			Candidates: rooms[:5],
			Clients:    []Client{clientIn(v, rooms[8], 0), clientIn(v, rooms[9], 1)},
		},
	}
	return tree, qs
}

// TestScratchReuseMatchesFresh: one Scratch carried across every objective
// and query shape produces results — including Stats, the memory metric
// among them — identical to freshly allocated state.
func TestScratchReuseMatchesFresh(t *testing.T) {
	tree, qs := scratchQueries(t)
	ctx := context.Background()
	sc := NewScratch()

	// Two passes: the first grows the Scratch, the second exercises real
	// reuse (including shrinks between shapes).
	for pass := 0; pass < 2; pass++ {
		for qi, q := range qs {
			for obj := Objective(0); obj < numObjectives; obj++ {
				opts := Options{Objective: obj, K: 2}
				fresh, err := Exec(ctx, tree, q, opts)
				if err != nil {
					t.Fatalf("pass %d q%d %v fresh: %v", pass, qi, obj, err)
				}
				opts.Scratch = sc
				pooled, err := Exec(ctx, tree, q, opts)
				if err != nil {
					t.Fatalf("pass %d q%d %v pooled: %v", pass, qi, obj, err)
				}
				switch obj {
				case ObjMinMax, ObjBaseline:
					if !eqResult(pooled.MinMax, fresh.MinMax) {
						t.Fatalf("pass %d q%d %v: pooled %+v != fresh %+v", pass, qi, obj, pooled.MinMax, fresh.MinMax)
					}
				case ObjMinDist, ObjMaxSum:
					if !eqExtResult(pooled.Ext, fresh.Ext) {
						t.Fatalf("pass %d q%d %v: pooled %+v != fresh %+v", pass, qi, obj, pooled.Ext, fresh.Ext)
					}
				case ObjTopK:
					if !eqTopK(pooled.TopK, fresh.TopK) {
						t.Fatalf("pass %d q%d topk: pooled %v != fresh %v", pass, qi, pooled.TopK, fresh.TopK)
					}
				case ObjMulti:
					if !eqMulti(pooled.Multi, fresh.Multi) {
						t.Fatalf("pass %d q%d multi: pooled %+v != fresh %+v", pass, qi, pooled.Multi, fresh.Multi)
					}
				}
			}
		}
	}
}

// TestSessionMatchesPackageSolvers: Session.Exec answers every objective
// exactly as the package-level Exec, query after query on one warm Session. The
// RetainedBytes metric is excluded: the session's persistent explorer cache
// is charged there by design, so it grows with history while a fresh run's
// does not.
func TestSessionMatchesPackageSolvers(t *testing.T) {
	tree, qs := scratchQueries(t)
	s := NewSession(tree)
	dropRetained := func(st *Stats) { st.RetainedBytes = 0 }
	for pass := 0; pass < 2; pass++ {
		for qi, q := range qs {
			got, want := mustSessionExec(s, q, Options{}).MinMax, mustExec(tree, q, Options{}).MinMax
			dropRetained(&got.Stats)
			dropRetained(&want.Stats)
			if !eqResult(got, want) {
				t.Fatalf("pass %d q%d minmax: session %+v != fresh %+v", pass, qi, got, want)
			}
			gotE, wantE := mustSessionExec(s, q, Options{Objective: ObjMinDist}).Ext, mustExec(tree, q, Options{Objective: ObjMinDist}).Ext
			dropRetained(&gotE.Stats)
			dropRetained(&wantE.Stats)
			if !eqExtResult(gotE, wantE) {
				t.Fatalf("pass %d q%d mindist: session %+v != fresh %+v", pass, qi, gotE, wantE)
			}
			gotE, wantE = mustSessionExec(s, q, Options{Objective: ObjMaxSum}).Ext, mustExec(tree, q, Options{Objective: ObjMaxSum}).Ext
			dropRetained(&gotE.Stats)
			dropRetained(&wantE.Stats)
			if !eqExtResult(gotE, wantE) {
				t.Fatalf("pass %d q%d maxsum: session %+v != fresh %+v", pass, qi, gotE, wantE)
			}
			if gotK, wantK := mustSessionExec(s, q, Options{Objective: ObjTopK, K: 2}).TopK, mustExec(tree, q, Options{Objective: ObjTopK, K: 2}).TopK; !eqTopK(gotK, wantK) {
				t.Fatalf("pass %d q%d topk: session %v != fresh %v", pass, qi, gotK, wantK)
			}
			if gotM, wantM := mustSessionExec(s, q, Options{Objective: ObjMulti, K: 2}).Multi, mustExec(tree, q, Options{Objective: ObjMulti, K: 2}).Multi; !eqMulti(gotM, wantM) {
				t.Fatalf("pass %d q%d multi: session %+v != fresh %+v", pass, qi, gotM, wantM)
			}
		}
	}
}

// sessionAllocBound is the pinned steady-state allocation count for one
// Session.Exec MinMax call on the fixture query: zero. With the scratch memory,
// explorer cache, dense partition columns, and queue storage all warm, a
// query touches no map internals and appends into retained capacity only. A
// regression here means someone re-introduced per-query allocation into the
// engine hot path.
const sessionAllocBound = 0

// TestSessionSolveAllocBound pins the steady-state allocation count of a
// warm Session.Exec. The bound is a small constant — independent of how
// many queries ran before — because the Scratch retains every buffer.
func TestSessionSolveAllocBound(t *testing.T) {
	tree, qs := scratchQueries(t)
	s := NewSession(tree)
	q := qs[0]
	for i := 0; i < 3; i++ {
		mustSessionExec(s, q, Options{}) // warm the scratch and the explorer cache
	}
	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Exec(ctx, q, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > sessionAllocBound {
		t.Fatalf("Session.Exec allocates %.1f objects/run steady-state, want <= %d", avg, sessionAllocBound)
	}
}

func BenchmarkSolveFresh(b *testing.B) {
	tree, qs := benchScratchSetup(b)
	q := qs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), tree, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveScratch(b *testing.B) {
	tree, qs := benchScratchSetup(b)
	q := qs[0]
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), tree, q, Options{Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionSolve(b *testing.B) {
	tree, qs := benchScratchSetup(b)
	q := qs[0]
	s := NewSession(tree)
	mustSessionExec(s, q, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(context.Background(), q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScratchSetup(b *testing.B) (*vip.Tree, []*Query) {
	b.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	return tree, []*Query{{
		Existing:   rooms[:2],
		Candidates: rooms[2:6],
		Clients:    []Client{clientIn(v, rooms[6], 0), clientIn(v, rooms[7], 1), clientIn(v, rooms[8], 2)},
	}}
}
