package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Objective selects which solver a batched query runs. Objectives are
// plain values; copy and compare freely.
type Objective string

const (
	// MinMax runs core.ObjMinMax, the paper's efficient approach
	// (Algorithms 2 and 3). It is the zero value's behavior: a Query
	// with an empty Objective runs MinMax.
	MinMax Objective = "minmax"
	// Baseline runs core.ObjBaseline, the modified MinMax algorithm
	// (Algorithm 1).
	Baseline Objective = "baseline"
	// MinDist runs core.ObjMinDist (Section 7 extension).
	MinDist Objective = "mindist"
	// MaxSum runs core.ObjMaxSum (Section 7 extension).
	MaxSum Objective = "maxsum"
	// TopK runs core.ObjTopK with Query.K.
	TopK Objective = "topk"
)

// Query is one unit of batch work: an IFLS query body plus the objective
// to solve it under. Queries are read-only during Run and may be shared
// between batches.
type Query struct {
	// Objective picks the solver; empty means MinMax.
	Objective Objective
	// K is the result count for TopK (ignored otherwise).
	K int
	// Query is the IFLS query body. A nil body fails the query with an
	// error rather than the batch.
	Query *core.Query
}

// Result is one query's outcome. Exactly one of the payload fields is
// populated, selected by the query's objective; Err is set instead when
// the query failed or was cancelled. A Result is written once by the
// worker that ran the query and is owned by the caller after Run returns.
type Result struct {
	// MinMax holds the answer for MinMax and Baseline queries.
	MinMax core.Result
	// Ext holds the answer for MinDist and MaxSum queries.
	Ext core.ExtResult
	// TopK holds the answer for TopK queries.
	TopK []core.RankedCandidate
	// Err is non-nil when the query did not produce an answer: context
	// cancellation, a nil query body, a query that fails validation
	// against the venue, an unknown objective, or a recovered solver
	// panic. Err always wraps one of the internal/faults sentinels
	// (ErrCancelled, ErrInvalidQuery, ErrUnknownObjective, ErrSolverPanic),
	// so callers classify with errors.Is.
	Err error
	// Elapsed is the query's own wall time (zero for cancelled queries).
	Elapsed time.Duration
}

// Options configure a batch run. The zero value runs on all cores.
type Options struct {
	// Workers bounds the goroutines executing queries. Zero uses all
	// available cores (runtime.NumCPU); 1 is exactly a sequential loop.
	Workers int
	// Metrics, when non-nil, receives one aggregate observation per query
	// and the batch's per-stage span counts. Span events are buffered per
	// worker and merged after the run, so the hot path never contends on
	// the shared atomics; a cancelled query's partial trace is discarded
	// and contributes no span events. Nil (the default) keeps every
	// solver on its unobserved path.
	Metrics *obs.Metrics
}

func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// Counters aggregate a batch's work, mirroring the per-query core.Stats
// the paper's efficiency argument is built on. They are totals over the
// queries that ran (cancelled queries contribute nothing). A Counters is a
// plain value owned by the caller.
type Counters struct {
	// Queries is the number of queries that executed (successfully or
	// with a solver error); cancelled queries are excluded.
	Queries int
	// Errors counts queries whose Result.Err is non-nil, including
	// cancelled ones.
	Errors int
	// Found counts queries whose answer improves on the status quo
	// (Result.Found, ExtResult.Improves, or a non-empty top-k list).
	Found int
	// PrunedClients totals core.Stats.PrunedClients — the Lemma 5.1
	// pruning the paper credits for the efficient approach's speed.
	PrunedClients int
	// DistanceCalcs totals core.Stats.DistanceCalcs.
	DistanceCalcs int
	// QueuePops totals core.Stats.QueuePops.
	QueuePops int
	// Wall is the whole batch's wall-clock time, not the sum of
	// per-query times; Sequential-vs-parallel speedup is the ratio of
	// Walls.
	Wall time.Duration
	// Spans counts span events per instrumented stage, merged from the
	// per-worker recorders. All zero unless Options.Metrics was set.
	Spans obs.StageCounts
}

// Report is the outcome of one batch run, owned by the caller.
type Report struct {
	// Results is aligned with the input queries: Results[i] answers
	// queries[i] regardless of execution order or worker count.
	Results []Result
	// Counters aggregates the run.
	Counters Counters
}

// Run executes the queries against one shared read-only tree on a bounded
// worker pool and returns when every query has either finished or been
// cancelled. See the package documentation for the concurrency model and
// the error-isolation guarantees. Run returns an error only for invalid
// arguments (nil tree); per-query failures land in Report.Results[i].Err.
//
// Run is safe to call concurrently — even on the same tree — because all
// mutable state is local to the call.
func Run(ctx context.Context, t *vip.Tree, queries []Query, opts Options) (*Report, error) {
	if t == nil {
		return nil, errors.New("batch: nil tree")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	rep := &Report{Results: make([]Result, len(queries))}

	workers := opts.workerCount()
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}

	// Workers claim query indexes from a shared counter; each index is
	// claimed exactly once, so Results writes are disjoint. Span counts
	// land in a per-worker slot (no shared mutable state inside the loop)
	// and are merged after the barrier.
	workerSpans := make([]obs.StageCounts, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var counts obs.Counting
			defer func() { workerSpans[slot] = counts.Counts }()
			var trace obs.Trace
			var tr *obs.Trace
			if opts.Metrics != nil {
				tr = &trace
			}
			// Each worker leases one Scratch for its whole run: queries on
			// a worker reuse the same working memory sequentially, so the
			// steady state of a large batch allocates almost nothing.
			sc := scratchPool.Get().(*core.Scratch)
			defer scratchPool.Put(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				if err := ctx.Err(); err != nil {
					rep.Results[i] = Result{Err: faults.Cancelled(err)}
					if opts.Metrics != nil {
						opts.Metrics.ObserveQuery(observation(queries[i], &rep.Results[i]))
					}
					continue
				}
				if tr != nil {
					tr.Reset()
				}
				rep.Results[i] = runOne(ctx, t, queries[i], tr, sc)
				if opts.Metrics != nil {
					// A cancelled query's partial trace is discarded: its
					// spans never reach the worker's counts.
					if !errors.Is(rep.Results[i].Err, faults.ErrCancelled) {
						trace.FlushTo(&counts)
					}
					opts.Metrics.ObserveQuery(observation(queries[i], &rep.Results[i]))
				}
			}
		}(w)
	}
	wg.Wait()

	c := &rep.Counters
	c.Wall = time.Since(start)
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Err != nil {
			c.Errors++
			if errors.Is(r.Err, faults.ErrCancelled) {
				continue // cancelled (before running or mid-solve)
			}
			c.Queries++
			continue
		}
		c.Queries++
		var st core.Stats
		switch effectiveObjective(queries[i].Objective) {
		case MinMax, Baseline:
			st = r.MinMax.Stats
			if r.MinMax.Found {
				c.Found++
			}
		case MinDist, MaxSum:
			st = r.Ext.Stats
			if r.Ext.Improves {
				c.Found++
			}
		case TopK:
			if len(r.TopK) > 0 {
				c.Found++
			}
		}
		c.PrunedClients += st.PrunedClients
		c.DistanceCalcs += st.DistanceCalcs
		c.QueuePops += st.QueuePops
	}
	for _, ws := range workerSpans {
		c.Spans.Merge(ws)
	}
	if opts.Metrics != nil {
		opts.Metrics.MergeStages(c.Spans)
	}
	return rep, nil
}

// observation renders one finished query for Metrics.ObserveQuery. Failed
// queries carry only the error and elapsed time; the work gauges come from
// the payload the objective populated.
func observation(q Query, r *Result) obs.QueryObservation {
	o := obs.QueryObservation{Elapsed: r.Elapsed, Err: r.Err}
	if r.Err != nil {
		return o
	}
	if q.Query != nil {
		o.Clients = len(q.Query.Clients)
	}
	switch effectiveObjective(q.Objective) {
	case MinMax, Baseline:
		o.Pruned = r.MinMax.Stats.PrunedClients
		o.DistanceCalcs = r.MinMax.Stats.DistanceCalcs
		o.QueuePops = r.MinMax.Stats.QueuePops
		o.Found = r.MinMax.Found
		o.FinalGd = r.MinMax.Objective
	case MinDist, MaxSum:
		o.Pruned = r.Ext.Stats.PrunedClients
		o.DistanceCalcs = r.Ext.Stats.DistanceCalcs
		o.QueuePops = r.Ext.Stats.QueuePops
		o.Found = r.Ext.Improves
		o.FinalGd = r.Ext.Objective
	case TopK:
		o.Found = len(r.TopK) > 0
		o.FinalGd = math.NaN() // no single converged bound for a ranking
		if len(r.TopK) > 0 {
			o.FinalGd = r.TopK[0].Objective
		}
	}
	return o
}

func effectiveObjective(o Objective) Objective {
	if o == "" {
		return MinMax
	}
	return o
}

// coreObjective maps a batch objective string to its engine dispatch entry.
func coreObjective(o Objective) (core.Objective, bool) {
	switch effectiveObjective(o) {
	case MinMax:
		return core.ObjMinMax, true
	case Baseline:
		return core.ObjBaseline, true
	case MinDist:
		return core.ObjMinDist, true
	case MaxSum:
		return core.ObjMaxSum, true
	case TopK:
		return core.ObjTopK, true
	}
	return 0, false
}

// scratchPool hands each batch worker a reusable core.Scratch. Pool-global
// so repeated Run calls (the dynamic-crowd replay loop) reuse warm memory
// across batches, not just within one.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// testHookRun, when non-nil, runs inside runOne's recovery scope before the
// solver dispatch. Tests use it to inject panics at a point production input
// cannot reach (validation rejects realistic panic sources first), proving
// the containment path without weakening validation.
var testHookRun func(Query)

// runOne executes a single query inside a recovery scope, so one malformed
// query cannot take down the batch: validation failures, unknown objectives,
// cancellation, and recovered solver panics all land in the query's own
// Result.Err, classified by the faults taxonomy. The solver work is one
// core.Exec call — the objective string maps to a dispatch-table entry, a
// non-nil trace becomes the run's recorder, and the worker's leased Scratch
// backs the run's working memory.
func runOne(ctx context.Context, t *vip.Tree, q Query, tr *obs.Trace, sc *core.Scratch) (r Result) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r = Result{Err: faults.Recovered(p)}
		}
		r.Elapsed = time.Since(start)
	}()
	if testHookRun != nil {
		testHookRun(q)
	}
	if q.Query == nil {
		r.Err = fmt.Errorf("%w: nil query body", faults.ErrInvalidQuery)
		return r
	}
	if err := q.Query.Validate(t.Venue()); err != nil {
		r.Err = err
		return r
	}
	if tr != nil {
		tr.Event(obs.Span{Stage: obs.StageValidate, Elapsed: time.Since(start)})
	}
	obj, ok := coreObjective(q.Objective)
	if !ok {
		r.Err = fmt.Errorf("%w: batch objective %q", faults.ErrUnknownObjective, q.Objective)
		return r
	}
	// A nil *obs.Trace must stay a nil interface, or the solver would take
	// its observed path with a typed-nil recorder.
	var rec obs.Recorder
	if tr != nil {
		rec = tr
	}
	er, err := core.Exec(ctx, t, q.Query, core.Options{Objective: obj, K: q.K, Recorder: rec, Scratch: sc})
	if err != nil {
		r.Err = err
		return r
	}
	switch obj {
	case core.ObjMinMax, core.ObjBaseline:
		r.MinMax = er.MinMax
	case core.ObjMinDist, core.ObjMaxSum:
		r.Ext = er.Ext
	case core.ObjTopK:
		r.TopK = er.TopK
	}
	return r
}
