package ifls

import (
	"math"
	"net/http"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/pager"
)

// The page cache takes its counter sink as a small structural interface;
// *Metrics is the production implementation (see PagedIndexOptions.Metrics).
// Pin the contract here so a drifting method set fails the build, not a
// restart.
var _ pager.Metrics = (*obs.Metrics)(nil)

// Metrics aggregates process-level query observability: query, error, and
// cancellation counts, a fixed-bound latency histogram, per-stage span
// counters, and convergence/prune-rate gauges. One Metrics is typically
// shared by every index and batch in the process and published once via
// PublishExpvar or served with MetricsMux. All methods are safe for
// concurrent use.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of a Metrics' aggregates.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// MetricsMux returns an http.ServeMux serving the metrics as expvar JSON
// under /debug/vars (published under the name "ifls") and the standard
// pprof profiling endpoints under /debug/pprof/. Mount it on any listener:
//
//	go http.ListenAndServe("localhost:6060", ifls.MetricsMux(m))
func MetricsMux(m *Metrics) *http.ServeMux { return obs.NewMux(m) }

// WithMetrics returns a shallow copy of the index whose solve methods —
// every plain and Context method of the Index and of the Sessions it
// creates — record exactly one observation per call into m, plus one span
// per instrumented stage (validate, locate, queue-pop, prune, answer-check).
// A multi-facility query reports Found when it selected any facility and
// its final objective as FinalGd. The receiver is unchanged and both copies
// share the same underlying tree, so indexing work is not repeated.
// Rejected and cancelled queries contribute error and latency counts but no
// solver span events. A nil m returns an unobserved copy.
func (ix *Index) WithMetrics(m *Metrics) *Index {
	cp := *ix
	cp.metrics = m
	return &cp
}

// Metrics returns the aggregate attached by WithMetrics, or nil.
func (ix *Index) Metrics() *Metrics { return ix.metrics }

// observe closes out one query on m: a successful query's buffered spans
// are merged into the aggregate stage counters, a failed (rejected,
// cancelled, or panicked) query's partial trace is discarded, and exactly
// one per-query observation is recorded either way.
func observe(m *Metrics, tr *obs.Trace, q *Query, start time.Time, obj core.Objective, r core.ExecResult, err error) {
	o := obs.QueryObservation{Elapsed: time.Since(start), Err: err}
	if err == nil {
		var c obs.Counting
		tr.FlushTo(&c)
		m.MergeStages(c.Counts)
		var st core.Stats
		switch obj {
		case core.ObjMinDist, core.ObjMaxSum:
			st, o.Found, o.FinalGd = r.Ext.Stats, r.Ext.Improves, r.Ext.Objective
		case core.ObjTopK:
			o.Found, o.FinalGd = len(r.TopK) > 0, math.NaN()
			if o.Found {
				o.FinalGd = r.TopK[0].Objective
			}
		case core.ObjMulti:
			st, o.Found, o.FinalGd = r.Multi.Stats, len(r.Multi.Answers) > 0, r.Multi.Objective
		default:
			st, o.Found, o.FinalGd = r.MinMax.Stats, r.MinMax.Found, r.MinMax.Objective
		}
		o.Clients = len(q.Clients)
		o.Pruned = st.PrunedClients
		o.DistanceCalcs = st.DistanceCalcs
		o.QueuePops = st.QueuePops
	}
	m.ObserveQuery(o)
}
