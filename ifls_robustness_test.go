package ifls_test

import (
	"context"
	"errors"
	"math"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

func robustnessFixture(t *testing.T) (*ifls.Venue, *ifls.Index, *ifls.Query) {
	t.Helper()
	v, err := ifls.SampleVenue("CPH")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ifls.RandomQuery(v, 5, 10, 80, ifls.Uniform, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return v, ix, q
}

// TestContextSolversCancel: every exported Context solver must stop on a
// cancelled context with an error that matches both the package sentinel
// and the stdlib cause, so callers can classify with either vocabulary.
func TestContextSolversCancel(t *testing.T) {
	_, ix, q := robustnessFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := map[string]func() error{
		"SolveContext":         func() error { _, err := ix.SolveContext(ctx, q); return err },
		"SolveBaselineContext": func() error { _, err := ix.SolveBaselineContext(ctx, q); return err },
		"SolveMinDistContext":  func() error { _, err := ix.SolveMinDistContext(ctx, q); return err },
		"SolveMaxSumContext":   func() error { _, err := ix.SolveMaxSumContext(ctx, q); return err },
		"SolveTopKContext":     func() error { _, err := ix.SolveTopKContext(ctx, q, 3); return err },
		"SolveMultiContext":    func() error { _, err := ix.SolveMultiContext(ctx, q, 2); return err },
		"Session.SolveContext": func() error { _, err := ix.NewSession().SolveContext(ctx, q); return err },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			err := call()
			if err == nil {
				t.Fatal("cancelled context: want error, got nil")
			}
			if !errors.Is(err, ifls.ErrCancelled) {
				t.Errorf("errors.Is(err, ifls.ErrCancelled) = false for %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
			}
		})
	}
}

// TestNewIndexContextCancel: index construction is the long pole (the
// all-pairs matrix fill); it must honor an already-cancelled context.
func TestNewIndexContextCancel(t *testing.T) {
	v, _, _ := robustnessFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ifls.NewIndexContext(ctx, v, ifls.IndexOptions{}); !errors.Is(err, ifls.ErrCancelled) {
		t.Fatalf("NewIndexContext(cancelled): got %v, want ErrCancelled", err)
	}
	// And a background context must still build normally.
	if _, err := ifls.NewIndexContext(context.Background(), v, ifls.IndexOptions{}); err != nil {
		t.Fatalf("NewIndexContext(background): %v", err)
	}
}

// TestContextWrappersMatchPlain pins the bit-identical wrapper guarantee
// at the public boundary: with a background context, Context methods and
// their plain counterparts return the same answers.
func TestContextWrappersMatchPlain(t *testing.T) {
	_, ix, q := robustnessFixture(t)
	ctx := context.Background()

	if r, err := ix.SolveContext(ctx, q); err != nil || r != ix.Solve(q) {
		t.Errorf("SolveContext = (%+v, %v), plain = %+v", r, err, ix.Solve(q))
	}
	if r, err := ix.SolveBaselineContext(ctx, q); err != nil || r != ix.SolveBaseline(q) {
		t.Errorf("SolveBaselineContext = (%+v, %v), plain = %+v", r, err, ix.SolveBaseline(q))
	}
	if r, err := ix.SolveMinDistContext(ctx, q); err != nil || r != ix.SolveMinDist(q) {
		t.Errorf("SolveMinDistContext = (%+v, %v), plain = %+v", r, err, ix.SolveMinDist(q))
	}
	if r, err := ix.SolveMaxSumContext(ctx, q); err != nil || r != ix.SolveMaxSum(q) {
		t.Errorf("SolveMaxSumContext = (%+v, %v), plain = %+v", r, err, ix.SolveMaxSum(q))
	}
	rk, err := ix.SolveTopKContext(ctx, q, 4)
	pk := ix.SolveTopK(q, 4)
	if err != nil || len(rk) != len(pk) {
		t.Fatalf("SolveTopKContext = (%v, %v), plain = %v", rk, err, pk)
	}
	for i := range pk {
		if rk[i] != pk[i] {
			t.Errorf("TopK[%d]: ctx %+v, plain %+v", i, rk[i], pk[i])
		}
	}
}

// TestInvalidQueriesReturnTypedErrors drives the validation taxonomy
// through the public API: each class of malformed query must surface
// ErrInvalidQuery from every Index and Session Context method and the
// degraded not-found result (never a panic) from the plain methods.
func TestInvalidQueriesReturnTypedErrors(t *testing.T) {
	v, ix, good := robustnessFixture(t)
	np := ifls.PartitionID(len(v.Partitions))
	cases := map[string]*ifls.Query{
		"nil query":            nil,
		"unknown existing":     {Existing: []ifls.PartitionID{np + 5}, Candidates: good.Candidates, Clients: good.Clients},
		"unknown candidate":    {Existing: good.Existing, Candidates: []ifls.PartitionID{-2}, Clients: good.Clients},
		"no candidates":        {Existing: good.Existing, Clients: good.Clients},
		"client off partition": {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(-1e6, -1e6, 0), Part: 0}}},
		"client NaN":           {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(math.NaN(), 0, 0), Part: 0}}},
		"client bad partition": {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(1, 1, 0), Part: np + 9}}},
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ix.SolveContext(context.Background(), q); !errors.Is(err, ifls.ErrInvalidQuery) {
				t.Errorf("SolveContext: got %v, want ErrInvalidQuery", err)
			}
			ctx := context.Background()
			s := ix.NewSession()
			for method, call := range map[string]func() error{
				"SolveMultiContext":           func() error { _, err := ix.SolveMultiContext(ctx, q, 2); return err },
				"Session.SolveContext":        func() error { _, err := s.SolveContext(ctx, q); return err },
				"Session.SolveMinDistContext": func() error { _, err := s.SolveMinDistContext(ctx, q); return err },
				"Session.SolveMaxSumContext":  func() error { _, err := s.SolveMaxSumContext(ctx, q); return err },
				"Session.SolveMultiContext":   func() error { _, err := s.SolveMultiContext(ctx, q, 2); return err },
			} {
				if err := call(); !errors.Is(err, ifls.ErrInvalidQuery) {
					t.Errorf("%s: got %v, want ErrInvalidQuery", method, err)
				}
			}
			// Plain method: SolveContext with the error dropped, so an
			// invalid query degrades to the not-found result.
			if r := ix.Solve(q); r.Found || r.Answer != ifls.NoPartition {
				t.Errorf("Solve: got %+v, want the not-found result", r)
			}
		})
	}
}

// TestErrorSentinelsAreFaultsSentinels: the re-exported errors must be the
// same values the internal packages wrap, so errors.Is works across the
// boundary in both directions.
func TestErrorSentinelsAreFaultsSentinels(t *testing.T) {
	_, ix, _ := robustnessFixture(t)
	_, err := ix.SolveContext(context.Background(), nil)
	if !errors.Is(err, ifls.ErrInvalidQuery) {
		t.Fatalf("nil query error %v does not match re-exported sentinel", err)
	}
	if ifls.ErrCancelled.Error() == "" || ifls.ErrSolverPanic.Error() == "" {
		t.Fatal("sentinels must carry messages")
	}
}

// TestWorkloadErrorsSurface: the workload generator reports bad parameters
// as ErrInvalidWorkload through the public RandomQuery path.
func TestWorkloadErrorsSurface(t *testing.T) {
	v, _, _ := robustnessFixture(t)
	_, err := ifls.RandomQuery(v, 1<<30, 10, 5, ifls.Uniform, 0, 1)
	if !errors.Is(err, ifls.ErrInvalidWorkload) {
		t.Fatalf("oversized facility request: got %v, want ErrInvalidWorkload", err)
	}
	_, err = ifls.RandomQuery(v, 3, 5, 10, ifls.Distribution(99), 0, 1)
	if !errors.Is(err, ifls.ErrInvalidWorkload) {
		t.Fatalf("unknown distribution: got %v, want ErrInvalidWorkload", err)
	}
}

// TestMalformedVenueTaxonomy: builder failures classify as
// ErrMalformedVenue through the public Builder alias.
func TestMalformedVenueTaxonomy(t *testing.T) {
	b := ifls.NewBuilder("broken")
	b.AddRoom(ifls.R(0, 0, 10, 10, 0), "island", "") // no doors, disconnected
	if _, err := b.Build(); !errors.Is(err, ifls.ErrMalformedVenue) {
		t.Fatalf("Build: got %v, want ErrMalformedVenue", err)
	}
}
