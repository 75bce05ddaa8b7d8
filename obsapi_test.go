package ifls_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

func observedFixture(t *testing.T) (*ifls.Index, *ifls.Query, *ifls.Metrics) {
	t.Helper()
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	c0, err := ix.ClientAt(0, ifls.Pt(5, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ix.ClientAt(1, ifls.Pt(35, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2], rooms[3]},
		Clients:    []ifls.Client{c0, c3},
	}
	return ix, q, ifls.NewMetrics()
}

func TestWithMetricsObservesQueries(t *testing.T) {
	ix, q, m := observedFixture(t)
	obsIx := ix.WithMetrics(m)
	if ix.Metrics() != nil {
		t.Fatal("WithMetrics mutated the receiver")
	}
	if obsIx.Metrics() != m {
		t.Fatal("Metrics() does not return the attached aggregate")
	}

	ctx := context.Background()
	plain, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatalf("plain SolveContext: %v", err)
	}
	got, err := obsIx.SolveContext(ctx, q)
	if err != nil {
		t.Fatalf("observed SolveContext: %v", err)
	}
	if got != plain {
		t.Fatalf("observed result %+v != plain %+v", got, plain)
	}
	if _, err := obsIx.SolveBaselineContext(ctx, q); err != nil {
		t.Fatalf("SolveBaselineContext: %v", err)
	}
	if _, err := obsIx.SolveMinDistContext(ctx, q); err != nil {
		t.Fatalf("SolveMinDistContext: %v", err)
	}
	if _, err := obsIx.SolveMaxSumContext(ctx, q); err != nil {
		t.Fatalf("SolveMaxSumContext: %v", err)
	}
	if _, err := obsIx.SolveTopKContext(ctx, q, 2); err != nil {
		t.Fatalf("SolveTopKContext: %v", err)
	}

	s := m.Snapshot()
	if s.Queries != 5 {
		t.Fatalf("Queries = %d, want 5", s.Queries)
	}
	if s.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", s.Errors)
	}
	if s.Stages.Total() == 0 {
		t.Fatal("no span events recorded")
	}
	// Five validated queries: the validate stage fired exactly five times.
	if got := s.Stages[0]; got != 5 { // StageValidate is ordinal 0
		t.Fatalf("validate spans = %d, want 5", got)
	}

	// A rejected query is observed as an error, with no new spans.
	before := m.Snapshot().Stages.Total()
	if _, err := obsIx.SolveContext(ctx, nil); !errors.Is(err, ifls.ErrInvalidQuery) {
		t.Fatalf("nil query: err = %v, want ErrInvalidQuery", err)
	}
	s = m.Snapshot()
	if s.Errors != 1 {
		t.Fatalf("Errors = %d after rejected query, want 1", s.Errors)
	}
	if s.Stages.Total() != before {
		t.Fatal("rejected query emitted span events")
	}

	// A cancelled query counts as a cancellation and leaves no spans.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before = s.Stages.Total() + 1 // +1: validate fires before the solver sees ctx
	if _, err := obsIx.SolveContext(cancelled, q); !errors.Is(err, ifls.ErrCancelled) {
		t.Fatalf("cancelled: err = %v, want ErrCancelled", err)
	}
	s = m.Snapshot()
	if s.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1", s.Cancellations)
	}
	if s.Stages.Total() != before {
		t.Fatalf("cancelled query leaked solver spans: %d != %d", s.Stages.Total(), before)
	}
}

// TestWithMetricsCoversEverySolveMethod: every plain and Context solve
// method of a WithMetrics index, and of a Session it creates, records
// exactly one observation per call — a clean one for a valid query and an
// errored one for a rejected query.
func TestWithMetricsCoversEverySolveMethod(t *testing.T) {
	ix, q, _ := observedFixture(t)
	ctx := context.Background()
	methods := map[string]func(ix *ifls.Index, q *ifls.Query){
		"Solve":                func(ix *ifls.Index, q *ifls.Query) { ix.Solve(q) },
		"SolveContext":         func(ix *ifls.Index, q *ifls.Query) { ix.SolveContext(ctx, q) },
		"SolveBaseline":        func(ix *ifls.Index, q *ifls.Query) { ix.SolveBaseline(q) },
		"SolveBaselineContext": func(ix *ifls.Index, q *ifls.Query) { ix.SolveBaselineContext(ctx, q) },
		"SolveMinDist":         func(ix *ifls.Index, q *ifls.Query) { ix.SolveMinDist(q) },
		"SolveMinDistContext":  func(ix *ifls.Index, q *ifls.Query) { ix.SolveMinDistContext(ctx, q) },
		"SolveMaxSum":          func(ix *ifls.Index, q *ifls.Query) { ix.SolveMaxSum(q) },
		"SolveMaxSumContext":   func(ix *ifls.Index, q *ifls.Query) { ix.SolveMaxSumContext(ctx, q) },
		"SolveTopK":            func(ix *ifls.Index, q *ifls.Query) { ix.SolveTopK(q, 2) },
		"SolveTopKContext":     func(ix *ifls.Index, q *ifls.Query) { ix.SolveTopKContext(ctx, q, 2) },
		"SolveMulti":           func(ix *ifls.Index, q *ifls.Query) { ix.SolveMulti(q, 2) },
		"SolveMultiContext":    func(ix *ifls.Index, q *ifls.Query) { ix.SolveMultiContext(ctx, q, 2) },

		"Session.Solve":               func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().Solve(q) },
		"Session.SolveContext":        func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveContext(ctx, q) },
		"Session.SolveTopK":           func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveTopK(q, 2) },
		"Session.SolveMinDist":        func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMinDist(q) },
		"Session.SolveMinDistContext": func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMinDistContext(ctx, q) },
		"Session.SolveMaxSum":         func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMaxSum(q) },
		"Session.SolveMaxSumContext":  func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMaxSumContext(ctx, q) },
		"Session.SolveMulti":          func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMulti(q, 2) },
		"Session.SolveMultiContext":   func(ix *ifls.Index, q *ifls.Query) { ix.NewSession().SolveMultiContext(ctx, q, 2) },
	}
	for name, call := range methods {
		m := ifls.NewMetrics()
		obsIx := ix.WithMetrics(m)
		call(obsIx, q)
		if s := m.Snapshot(); s.Queries != 1 || s.Errors != 0 || s.Found != 1 {
			t.Errorf("%s valid query: Queries/Errors/Found = %d/%d/%d, want 1/0/1", name, s.Queries, s.Errors, s.Found)
		}
		call(obsIx, nil)
		if s := m.Snapshot(); s.Queries != 2 || s.Errors != 1 {
			t.Errorf("%s nil query: Queries/Errors = %d/%d, want 2/1", name, s.Queries, s.Errors)
		}
	}
}

func TestMetricsMuxServes(t *testing.T) {
	ix, q, m := observedFixture(t)
	obsIx := ix.WithMetrics(m)
	if _, err := obsIx.SolveContext(context.Background(), q); err != nil {
		t.Fatalf("SolveContext: %v", err)
	}

	srv := httptest.NewServer(ifls.MetricsMux(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var vars struct {
		IFLS struct {
			Queries int64             `json:"queries"`
			Stages  map[string]uint64 `json:"stages"`
		} `json:"ifls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if vars.IFLS.Queries != 1 {
		t.Fatalf("expvar queries = %d, want 1", vars.IFLS.Queries)
	}
	if vars.IFLS.Stages["validate"] == 0 || vars.IFLS.Stages["locate"] == 0 {
		t.Fatalf("expvar stages missing counts: %v", vars.IFLS.Stages)
	}

	prof, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status = %d", prof.StatusCode)
	}
}

func TestMetricsExpvarStringIsJSON(t *testing.T) {
	_, _, m := observedFixture(t)
	out := m.ExpvarString()
	if !strings.HasPrefix(out, "{") || !json.Valid([]byte(out)) {
		t.Fatalf("ExpvarString not valid JSON: %q", out)
	}
}
