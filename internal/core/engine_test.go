package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// eqFloat compares objectives treating NaN as equal to NaN (the canonical
// "no answer" objective).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqResult(a, b Result) bool {
	return a.Found == b.Found && a.Answer == b.Answer && eqFloat(a.Objective, b.Objective) && a.Stats == b.Stats
}

func eqExtResult(a, b ExtResult) bool {
	return a.Answer == b.Answer && eqFloat(a.Objective, b.Objective) && a.Improves == b.Improves && a.Stats == b.Stats
}

func eqTopK(a, b []RankedCandidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Candidate != b[i].Candidate || !eqFloat(a[i].Objective, b[i].Objective) {
			return false
		}
	}
	return true
}

func eqMulti(a, b MultiResult) bool {
	if !eqFloat(a.Objective, b.Objective) || a.Stats != b.Stats || len(a.Answers) != len(b.Answers) || len(a.PerStep) != len(b.PerStep) {
		return false
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			return false
		}
	}
	for i := range a.PerStep {
		if !eqFloat(a.PerStep[i], b.PerStep[i]) {
			return false
		}
	}
	return true
}

// mustExec is Exec with a background context, which never cancels: the
// only error left is an unknown objective, a bug in the calling test.
func mustExec(tree *vip.Tree, q *Query, o Options) ExecResult {
	r, err := Exec(context.Background(), tree, q, o)
	if err != nil {
		panic(err)
	}
	return r
}

// mustSessionExec is mustExec through a Session.
func mustSessionExec(s *Session, q *Query, o Options) ExecResult {
	r, err := s.Exec(context.Background(), q, o)
	if err != nil {
		panic(err)
	}
	return r
}

func engineFixture(t *testing.T) (*vip.Tree, *Query) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:2],
		Candidates: rooms[2:6],
		Clients: []Client{
			clientIn(v, rooms[6], 0),
			clientIn(v, rooms[7], 1),
			clientIn(v, rooms[8], 2),
		},
	}
	return tree, q
}

// TestExecWrapperParity: a nil Options.Scratch is exactly a fresh
// NewScratch — Exec supplies the private one itself, so both calls run the
// same code and return byte-identical payloads, Stats included.
func TestExecWrapperParity(t *testing.T) {
	tree, q := engineFixture(t)
	for obj := Objective(0); obj < numObjectives; obj++ {
		o := Options{Objective: obj, K: 2}
		nilScratch := mustExec(tree, q, o)
		o.Scratch = NewScratch()
		fresh := mustExec(tree, q, o)
		if !eqResult(nilScratch.MinMax, fresh.MinMax) || !eqExtResult(nilScratch.Ext, fresh.Ext) ||
			!eqTopK(nilScratch.TopK, fresh.TopK) || !eqMulti(nilScratch.Multi, fresh.Multi) {
			t.Fatalf("%v: nil Scratch %+v != NewScratch %+v", obj, nilScratch, fresh)
		}
	}
}

// TestExecEmptyUniform: impossible queries — no clients, no candidates, or a
// non-positive K where K matters — answer with each objective's canonical
// empty result and a nil error, before any solver state is built.
func TestExecEmptyUniform(t *testing.T) {
	tree, base := engineFixture(t)
	ctx := context.Background()

	impossible := []struct {
		name string
		q    *Query
		k    int
	}{
		{"no clients", &Query{Existing: base.Existing, Candidates: base.Candidates}, 3},
		{"no candidates", &Query{Existing: base.Existing, Clients: base.Clients}, 3},
		{"both empty", &Query{}, 3},
		{"zero k", base, 0},
		{"negative k", base, -2},
	}
	for _, tc := range impossible {
		kMatters := tc.q == base // the zero/negative-k rows use the possible base query
		for obj := Objective(0); obj < numObjectives; obj++ {
			if kMatters && obj != ObjTopK && obj != ObjMulti {
				continue // K is ignored by the single-answer objectives
			}
			er, err := Exec(ctx, tree, tc.q, Options{Objective: obj, K: tc.k})
			if err != nil {
				t.Fatalf("%s/%v: err %v", tc.name, obj, err)
			}
			switch obj {
			case ObjMinMax, ObjBaseline:
				if !eqResult(er.MinMax, noResult()) {
					t.Fatalf("%s/%v: %+v, want noResult", tc.name, obj, er.MinMax)
				}
			case ObjMinDist, ObjMaxSum:
				if !eqExtResult(er.Ext, noExtResult()) {
					t.Fatalf("%s/%v: %+v, want noExtResult", tc.name, obj, er.Ext)
				}
			case ObjTopK:
				if er.TopK != nil {
					t.Fatalf("%s/%v: %v, want nil ranking", tc.name, obj, er.TopK)
				}
			case ObjMulti:
				if !eqMulti(er.Multi, noMultiResult()) {
					t.Fatalf("%s/%v: %+v, want noMultiResult", tc.name, obj, er.Multi)
				}
			}
		}
	}
}

// TestExecUnknownObjective: an out-of-table objective is rejected with the
// taxonomy sentinel, not a panic or a silent MinMax run.
func TestExecUnknownObjective(t *testing.T) {
	tree, q := engineFixture(t)
	_, err := Exec(context.Background(), tree, q, Options{Objective: numObjectives + 3})
	if !errors.Is(err, faults.ErrUnknownObjective) {
		t.Fatalf("err = %v, want ErrUnknownObjective", err)
	}
}

// TestObjectiveString: the dispatch table's wire names match the batch
// layer's objective strings.
func TestObjectiveString(t *testing.T) {
	want := map[Objective]string{
		ObjMinMax:   "minmax",
		ObjBaseline: "baseline",
		ObjMinDist:  "mindist",
		ObjMaxSum:   "maxsum",
		ObjTopK:     "topk",
		ObjMulti:    "multi",
	}
	for obj, name := range want {
		if got := obj.String(); got != name {
			t.Fatalf("%d.String() = %q, want %q", obj, got, name)
		}
	}
	if got := Objective(200).String(); got != "objective(200)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}
