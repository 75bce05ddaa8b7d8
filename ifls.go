// Package ifls is a Go library for Indoor Facility Location Selection
// queries, reproducing "An Efficient Approach for Indoor Facility Location
// Selection" (Rayhan, Hashem, Cheema, Lu, Ali — EDBT 2023).
//
// Given an indoor venue (partitions connected by doors and stairs), a set of
// clients, a set of existing facilities, and a set of candidate locations,
// an IFLS query returns the candidate that minimizes the maximum indoor
// distance of any client to its nearest facility (the MinMax objective);
// MinDist (minimum total distance) and MaxSum (maximum captured clients)
// variants are also provided.
//
// # Building a venue
//
// Model the venue with a Builder: add rooms, corridors, and stairs, connect
// them with doors, and Build. Venues can also be loaded from JSON
// (LoadVenue) or generated (SampleVenue reproduces the four venues of the
// paper's evaluation).
//
//	b := ifls.NewBuilder("office")
//	hall := b.AddCorridor(ifls.R(0, 0, 30, 4, 0), "hall")
//	cafe := b.AddRoom(ifls.R(0, 4, 10, 14, 0), "cafe", "dining")
//	b.AddDoor(ifls.Pt(5, 4, 0), cafe, hall)
//	...
//	venue, err := b.Build()
//
// # Querying
//
// Build an Index (a VIP-tree) once per venue, then run queries against it:
//
//	ix, _ := ifls.NewIndex(venue)
//	res := ix.Solve(&ifls.Query{
//		Existing:   []ifls.PartitionID{cafe},
//		Candidates: candidates,
//		Clients:    clients,
//	})
//	if res.Found {
//		fmt.Println("place the new facility in", res.Answer)
//	}
//
// Solve is the paper's efficient approach; SolveBaseline is the modified
// MinMax baseline the paper compares against; SolveMinDist and SolveMaxSum
// are the Section 7 extensions. The Index also answers plain indoor
// distance and nearest-facility queries.
//
// # Errors, cancellation, and failure containment
//
// Every solver has a Context variant (SolveContext, SolveBaselineContext,
// SolveMinDistContext, SolveMaxSumContext, SolveTopKContext,
// SolveMultiContext; NewIndexContext for construction). The Context variants
// validate the query first and return errors from a small fixed taxonomy —
// ErrInvalidQuery, ErrMalformedVenue, ErrCancelled, ErrInvalidWorkload,
// ErrUnknownObjective, ErrInvalidOptions, ErrSolverPanic — classified with
// errors.Is:
//
//	res, err := ix.SolveContext(ctx, q)
//	switch {
//	case errors.Is(err, ifls.ErrCancelled):    // ctx expired; retry later
//	case errors.Is(err, ifls.ErrInvalidQuery): // reject the request
//	case errors.Is(err, ifls.ErrSolverPanic):  // contained crash; report
//	}
//
// A cancelled context stops the solver at its next checkpoint and the error
// also satisfies errors.Is(err, context.Canceled) (or DeadlineExceeded).
// Each plain method is its Context variant with a background context and
// the error dropped, so it never panics either: an invalid query or a
// contained internal panic degrades to the "not found" result.
package ifls

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"github.com/indoorspatial/ifls/internal/continuous"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/locate"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// The error taxonomy, re-exported from the internal faults package. Every
// error returned by this package wraps exactly one of these sentinels;
// classify with errors.Is.
var (
	// ErrInvalidQuery marks malformed query input: unknown partition IDs,
	// non-finite or cross-level client coordinates, clients outside their
	// declared partition, an empty candidate set, or a nil query.
	ErrInvalidQuery = faults.ErrInvalidQuery
	// ErrMalformedVenue marks venues that fail structural validation.
	ErrMalformedVenue = faults.ErrMalformedVenue
	// ErrCancelled marks early returns forced by context cancellation or
	// deadline expiry; the context's own error is in the chain too.
	ErrCancelled = faults.ErrCancelled
	// ErrInvalidWorkload marks impossible workload-generation requests.
	ErrInvalidWorkload = faults.ErrInvalidWorkload
	// ErrUnknownObjective marks requests naming an unknown objective or
	// solver.
	ErrUnknownObjective = faults.ErrUnknownObjective
	// ErrInvalidOptions marks unusable configuration, such as index fanouts
	// below the structural minimum.
	ErrInvalidOptions = faults.ErrInvalidOptions
	// ErrSolverPanic marks a panic recovered at the API boundary; the
	// failure was contained to the one query that triggered it.
	ErrSolverPanic = faults.ErrSolverPanic
)

// Core model types, re-exported from the internal packages.
type (
	// Venue is a complete indoor space: partitions connected by doors.
	Venue = indoor.Venue
	// Builder assembles and validates a Venue.
	Builder = indoor.Builder
	// Partition is one indoor space unit (room, corridor, or stairwell).
	Partition = indoor.Partition
	// Door connects two partitions at a point.
	Door = indoor.Door
	// PartitionID identifies a partition within its venue.
	PartitionID = indoor.PartitionID
	// DoorID identifies a door within its venue.
	DoorID = indoor.DoorID
	// Point is a located coordinate (x, y, level).
	Point = geom.Point
	// Rect is an axis-aligned rectangle on one level.
	Rect = geom.Rect
	// Client is a located query client.
	Client = core.Client
	// Query is an IFLS instance: existing facilities, candidate
	// locations, and clients.
	Query = core.Query
	// Result is a MinMax query outcome.
	Result = core.Result
	// ExtResult is a MinDist/MaxSum query outcome.
	ExtResult = core.ExtResult
	// Stats counts solver work (distance computations, prunes, ...).
	Stats = core.Stats
)

// NoPartition marks the absence of a partition.
const NoPartition = indoor.NoPartition

// NewBuilder starts a venue description.
func NewBuilder(name string) *Builder { return indoor.NewBuilder(name) }

// Pt constructs a Point.
func Pt(x, y float64, level int) Point { return geom.Pt(x, y, level) }

// R constructs a Rect from corner coordinates on a level.
func R(x0, y0, x1, y1 float64, level int) Rect { return geom.R(x0, y0, x1, y1, level) }

// LoadVenue reads a venue from its JSON representation and validates it.
func LoadVenue(r io.Reader) (*Venue, error) { return indoor.ReadJSON(r) }

// SampleVenue generates one of the paper's four evaluation venues by short
// name: "MC" (Melbourne Central), "CH" (Chadstone), "CPH" (Copenhagen
// Airport), or "MZB" (Menzies Building).
func SampleVenue(name string) (*Venue, error) { return venues.ByName(name) }

// SampleVenueNames lists the venue names SampleVenue accepts.
func SampleVenueNames() []string { return append([]string(nil), venues.Names...) }

// IndexOptions configure index construction.
type IndexOptions struct {
	// LeafFanout is the maximum number of partitions per index leaf
	// (default 8).
	LeafFanout int
	// NodeFanout is the maximum number of children per internal index
	// node (default 4).
	NodeFanout int
	// IPTree disables the VIP-tree's leaf-to-ancestor matrices, building
	// the smaller but slower IP-tree instead.
	IPTree bool
	// Workers bounds the goroutines used to fill the index's distance
	// matrices during construction. Zero uses all available cores; 1
	// forces the sequential path. The built index is identical for every
	// worker count (see ARCHITECTURE.md).
	Workers int
}

// Index is a queryable VIP-tree over one venue. Safe for concurrent reads.
type Index struct {
	venue   *indoor.Venue
	tree    *vip.Tree
	locator *locate.Locator
	// metrics, when set via WithMetrics, makes every solve method record
	// per-query spans and aggregates. Nil (the default) keeps the solvers
	// on their unobserved paths.
	metrics *obs.Metrics
}

// NewIndex builds an Index with default options.
func NewIndex(v *Venue) (*Index, error) { return NewIndexWithOptions(v, IndexOptions{}) }

// NewIndexWithOptions builds an Index with explicit options.
func NewIndexWithOptions(v *Venue, opts IndexOptions) (*Index, error) {
	return NewIndexContext(context.Background(), v, opts)
}

// NewIndexContext is NewIndexWithOptions with cooperative cancellation:
// construction's dominant phase (one shortest-path expansion per door) polls
// the context once per door, so a cancel or deadline abandons the build
// promptly and returns an error wrapping ErrCancelled. A nil or empty venue
// yields ErrMalformedVenue; unusable fanouts yield ErrInvalidOptions.
func NewIndexContext(ctx context.Context, v *Venue, opts IndexOptions) (*Index, error) {
	o := vip.DefaultOptions()
	if opts.LeafFanout != 0 {
		o.LeafFanout = opts.LeafFanout
	}
	if opts.NodeFanout != 0 {
		o.NodeFanout = opts.NodeFanout
	}
	o.Vivid = !opts.IPTree
	o.Workers = opts.Workers
	t, err := vip.BuildContext(ctx, v, o)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t, locator: locate.New(v)}, nil
}

// Venue returns the indexed venue.
func (ix *Index) Venue() *Venue { return ix.venue }

// Save persists the index (structure and distance matrices) so a later
// process can LoadIndex it without recomputing — the "indexed once offline"
// deployment the paper assumes. The venue is persisted separately with
// Venue.WriteJSON.
func (ix *Index) Save(w io.Writer) error { return ix.tree.Save(w) }

// LoadIndex restores an index previously written with Index.Save or
// Index.SavePaged, bound to the venue it was built from. Both formats come
// back fully materialized; to open a paged file lazily through the page
// cache, use OpenIndexFile.
func LoadIndex(r io.Reader, v *Venue) (*Index, error) {
	t, err := vip.Load(r, v)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t, locator: locate.New(v)}, nil
}

// PagedSaveOptions configure Index.SavePaged.
type PagedSaveOptions struct {
	// PageSize is the page payload size in bytes. Zero selects the 64 KiB
	// default; any other value must be a positive multiple of 8.
	PageSize int
}

// SavePaged persists the index in the paged (version 3) format: the tree
// structure in a verified envelope, the distance matrices in fixed-size
// individually-checksummed pages. A process that reopens the file with
// OpenIndexFile is query-ready as soon as the structure is read — matrix
// pages fault in lazily — which turns restart time from proportional-to-
// matrix-heap into milliseconds. LoadIndex also accepts the format,
// materializing it fully.
func (ix *Index) SavePaged(w io.Writer, o PagedSaveOptions) error {
	return ix.tree.SavePaged(w, vip.PagedSaveOptions{PageSize: o.PageSize})
}

// PagedIndexOptions configure how OpenIndexFile serves a paged index file.
// The zero value is ready to use.
type PagedIndexOptions struct {
	// CacheBytes bounds the page cache. Zero selects the 64 MiB default;
	// negative removes the bound.
	CacheBytes int64
	// Mmap maps the page section instead of reading pages with pread.
	// Ignored on platforms without mmap support.
	Mmap bool
	// Metrics, when non-nil, receives page_cache_hits / page_cache_misses /
	// page_cache_evictions / pages_read counts from this index's cache.
	Metrics *Metrics
}

// OpenIndexFile opens a saved index file from disk, sniffing its format: a
// paged (version 3) file opens lazily through an LRU page cache sized by o,
// and the file stays open for the life of the index — release it with
// Index.Close. A monolithic (version 2) file is fully materialized as with
// LoadIndex, and o is irrelevant. Either way the returned index answers
// queries identically; only residency and restart latency differ.
func OpenIndexFile(path string, v *Venue, o PagedIndexOptions) (*Index, error) {
	po := vip.PagedOptions{CacheBytes: o.CacheBytes, Mmap: o.Mmap}
	if o.Metrics != nil {
		po.Metrics = o.Metrics
	}
	t, err := vip.OpenFile(path, v, po)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t, locator: locate.New(v)}, nil
}

// Close releases resources held by a paged index — the page cache and the
// underlying file or mapping. On a fully-resident index it is a no-op.
// Queries must not be in flight or issued after Close.
func (ix *Index) Close() error { return ix.tree.Close() }

// guard runs fn and converts any escaping panic into an ErrSolverPanic
// error, containing the failure to the calling query. It is the single
// recovery point for every exported solver entry.
func guard(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = faults.Recovered(p)
		}
	}()
	fn()
	return nil
}

// degraded holds every objective's "not found" value, defined once: a
// failed solve returns it alongside its error, and the plain methods return
// it alone for an invalid query or a contained failure. Each method reads
// its objective's field.
var degraded = core.ExecResult{
	MinMax: Result{Answer: NoPartition, Objective: math.NaN()},
	Ext:    ExtResult{Answer: NoPartition, Objective: math.NaN()},
	Multi:  MultiResult{Objective: math.NaN()},
}

// validated runs Query.Validate against the indexed venue, so every solver
// rejects malformed input with ErrInvalidQuery before touching the tree.
func (ix *Index) validated(q *Query) error {
	if q == nil {
		return fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	return q.Validate(ix.venue)
}

// exec is the single path from every exported Index and Session solve
// method into the engine. In order, it validates q, contains panics with
// guard, runs core.Exec (or s.Exec when a session is given), and records
// the query to the WithMetrics aggregate when one is attached. On any error
// the payload is degraded.
func (ix *Index) exec(ctx context.Context, s *core.Session, q *Query, o core.Options) (core.ExecResult, error) {
	m := ix.metrics
	var start time.Time
	var tr *obs.Trace
	if m != nil {
		start = time.Now()
	}
	var r core.ExecResult
	err := ix.validated(q)
	if err == nil {
		if m != nil {
			m.Event(obs.Span{Stage: obs.StageValidate, Elapsed: time.Since(start)})
			tr = new(obs.Trace)
			o.Recorder = tr
		}
		if gerr := guard(func() {
			if s != nil {
				r, err = s.Exec(ctx, q, o)
			} else {
				r, err = core.Exec(ctx, ix.tree, q, o)
			}
		}); gerr != nil {
			err = gerr
		}
	}
	if m != nil {
		observe(m, tr, q, start, o.Objective, r, err)
	}
	if err != nil {
		return degraded, err
	}
	return r, nil
}

// Solve answers a MinMax IFLS query with the paper's efficient approach. It
// is SolveContext with a background context and the error dropped, so it
// never panics: an invalid query or a contained internal failure degrades
// to the "not found" result.
func (ix *Index) Solve(q *Query) Result {
	r, _ := ix.SolveContext(context.Background(), q)
	return r
}

// SolveContext is Solve with input validation and cooperative cancellation.
// It rejects malformed queries with ErrInvalidQuery, stops at the next
// solver checkpoint when ctx is cancelled (ErrCancelled), and converts any
// internal panic into ErrSolverPanic instead of crashing the caller.
func (ix *Index) SolveContext(ctx context.Context, q *Query) (Result, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjMinMax})
	return r.MinMax, err
}

// SolveBaseline answers the query with the modified MinMax baseline
// (Algorithm 1), provided for comparison and benchmarking. Never panics;
// see Solve.
func (ix *Index) SolveBaseline(q *Query) Result {
	r, _ := ix.SolveBaselineContext(context.Background(), q)
	return r
}

// SolveBaselineContext is SolveBaseline with input validation and
// cooperative cancellation; see SolveContext for the error contract.
func (ix *Index) SolveBaselineContext(ctx context.Context, q *Query) (Result, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjBaseline})
	return r.MinMax, err
}

// SolveMinDist answers the MinDist variant: the candidate minimizing the
// total client-to-nearest-facility distance. Never panics; an invalid query
// or a contained failure degrades to the no-answer ExtResult.
func (ix *Index) SolveMinDist(q *Query) ExtResult {
	r, _ := ix.SolveMinDistContext(context.Background(), q)
	return r
}

// SolveMinDistContext is SolveMinDist with input validation and cooperative
// cancellation; see SolveContext for the error contract.
func (ix *Index) SolveMinDistContext(ctx context.Context, q *Query) (ExtResult, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjMinDist})
	return r.Ext, err
}

// SolveMaxSum answers the MaxSum variant: the candidate that captures the
// most clients. Never panics; an invalid query or a contained failure
// degrades to the no-answer ExtResult.
func (ix *Index) SolveMaxSum(q *Query) ExtResult {
	r, _ := ix.SolveMaxSumContext(context.Background(), q)
	return r
}

// SolveMaxSumContext is SolveMaxSum with input validation and cooperative
// cancellation; see SolveContext for the error contract.
func (ix *Index) SolveMaxSumContext(ctx context.Context, q *Query) (ExtResult, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjMaxSum})
	return r.Ext, err
}

// RankedCandidate is one entry of a SolveTopK answer.
type RankedCandidate = core.RankedCandidate

// SolveTopK returns up to k candidates with the smallest MinMax objectives
// in ascending order, each with its exact objective. Candidates that do not
// improve on the status quo are omitted. Never panics; an invalid query or
// a contained failure degrades to an empty ranking.
func (ix *Index) SolveTopK(q *Query, k int) []RankedCandidate {
	r, _ := ix.SolveTopKContext(context.Background(), q, k)
	return r
}

// SolveTopKContext is SolveTopK with input validation and cooperative
// cancellation; see SolveContext for the error contract.
func (ix *Index) SolveTopKContext(ctx context.Context, q *Query, k int) ([]RankedCandidate, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjTopK, K: k})
	return r.TopK, err
}

// MultiResult is the outcome of SolveMulti.
type MultiResult = core.MultiResult

// SolveMulti greedily selects k candidate locations for k new facilities:
// each round solves a single-facility IFLS query and folds the winner into
// the existing set. Joint k-facility MinMax selection is NP-hard; the
// greedy chain is the standard practical approach. Never panics; an invalid
// query or a contained failure degrades to an empty selection.
func (ix *Index) SolveMulti(q *Query, k int) MultiResult {
	r, _ := ix.SolveMultiContext(context.Background(), q, k)
	return r
}

// SolveMultiContext is SolveMulti with input validation and cooperative
// cancellation; the context threads into every greedy round. See
// SolveContext for the error contract.
func (ix *Index) SolveMultiContext(ctx context.Context, q *Query, k int) (MultiResult, error) {
	r, err := ix.exec(ctx, nil, q, core.Options{Objective: core.ObjMulti, K: k})
	return r.Multi, err
}

// Locate returns the partition containing a point, or NoPartition.
func (ix *Index) Locate(p Point) PartitionID { return ix.locator.PartitionAt(p) }

// ClientAt builds a Client at a point, locating its partition. It returns
// an error when the point is outside every partition.
func (ix *Index) ClientAt(id int32, p Point) (Client, error) {
	part := ix.locator.PartitionAt(p)
	if part == NoPartition {
		return Client{}, fmt.Errorf("ifls: point %v is outside venue %q", p, ix.venue.Name)
	}
	return Client{ID: id, Loc: p, Part: part}, nil
}

// Distance returns the exact indoor distance between two points. It returns
// an error when either point is outside the venue.
func (ix *Index) Distance(p, q Point) (float64, error) {
	pp := ix.locator.PartitionAt(p)
	qp := ix.locator.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return 0, fmt.Errorf("ifls: point outside venue")
	}
	return ix.tree.DistPointToPoint(p, pp, q, qp), nil
}

// DistanceToPartition returns the exact indoor distance from a point to the
// nearest reachable point of a partition.
func (ix *Index) DistanceToPartition(p Point, target PartitionID) (float64, error) {
	pp := ix.locator.PartitionAt(p)
	if pp == NoPartition {
		return 0, fmt.Errorf("ifls: point %v outside venue", p)
	}
	return ix.tree.DistPointToPartition(p, pp, target), nil
}

// NearestFacility returns the facility partition nearest to a point and its
// distance, using the VIP-tree top-down search. facilities lists candidate
// partitions; ok is false when the set is empty or the point is outside the
// venue.
func (ix *Index) NearestFacility(p Point, facilities []PartitionID) (nearest PartitionID, dist float64, ok bool) {
	pp := ix.locator.PartitionAt(p)
	if pp == NoPartition {
		return NoPartition, 0, false
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	f, d := ix.tree.NearestFacility(p, pp, fs)
	if f == NoPartition {
		return NoPartition, 0, false
	}
	return f, d, true
}

// Route returns a shortest indoor route between two points: the sequence of
// waypoints (start, the doors crossed, end) and the total indoor distance.
// It returns an error when either point lies outside the venue.
func (ix *Index) Route(p, q Point) ([]Point, float64, error) {
	pp := ix.locator.PartitionAt(p)
	qp := ix.locator.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return nil, 0, fmt.Errorf("ifls: point outside venue")
	}
	doors, dist := ix.tree.Graph().PointRoute(p, pp, q, qp)
	pts := make([]Point, 0, len(doors)+2)
	pts = append(pts, p)
	for _, d := range doors {
		pts = append(pts, ix.venue.Door(d).Loc)
	}
	pts = append(pts, q)
	return pts, dist, nil
}

// Session amortizes repeated queries on one index — the dynamic-crowd
// scenario where the optimal location is recomputed as clients move. The
// venue-dependent distance vectors computed by each query are retained and
// reused by later ones. Each method validates, contains failures, and
// records to the index's metrics exactly like its Index counterpart. Not
// safe for concurrent use.
type Session struct {
	ix *Index
	s  *core.Session
}

// NewSession creates a query session over the index.
func (ix *Index) NewSession() *Session { return &Session{ix: ix, s: core.NewSession(ix.tree)} }

// Solve answers a MinMax IFLS query, reusing the session's caches. It is
// SolveContext with a background context and the error dropped; see
// Index.Solve.
func (s *Session) Solve(q *Query) Result {
	r, _ := s.SolveContext(context.Background(), q)
	return r
}

// SolveContext is Solve with input validation and cooperative cancellation;
// see Index.SolveContext for the error contract. The session's cache stays
// consistent on cancellation: distance vectors computed before the cancel
// remain valid and are reused by later queries.
func (s *Session) SolveContext(ctx context.Context, q *Query) (Result, error) {
	r, err := s.ix.exec(ctx, s.s, q, core.Options{Objective: core.ObjMinMax})
	return r.MinMax, err
}

// SolveTopK ranks up to k candidates, reusing the session's caches. Never
// panics; an invalid query or a contained failure degrades to an empty
// ranking.
func (s *Session) SolveTopK(q *Query, k int) []RankedCandidate {
	r, _ := s.ix.exec(context.Background(), s.s, q, core.Options{Objective: core.ObjTopK, K: k})
	return r.TopK
}

// SolveMinDist answers the MinDist variant, reusing the session's caches.
// Never panics; an invalid query or a contained failure degrades to the
// no-answer ExtResult.
func (s *Session) SolveMinDist(q *Query) ExtResult {
	r, _ := s.SolveMinDistContext(context.Background(), q)
	return r
}

// SolveMinDistContext is SolveMinDist with input validation and cooperative
// cancellation; see SolveContext for the cache-consistency contract.
func (s *Session) SolveMinDistContext(ctx context.Context, q *Query) (ExtResult, error) {
	r, err := s.ix.exec(ctx, s.s, q, core.Options{Objective: core.ObjMinDist})
	return r.Ext, err
}

// SolveMaxSum answers the MaxSum variant, reusing the session's caches.
// Never panics; an invalid query or a contained failure degrades to the
// no-answer ExtResult.
func (s *Session) SolveMaxSum(q *Query) ExtResult {
	r, _ := s.SolveMaxSumContext(context.Background(), q)
	return r
}

// SolveMaxSumContext is SolveMaxSum with input validation and cooperative
// cancellation; see SolveContext for the cache-consistency contract.
func (s *Session) SolveMaxSumContext(ctx context.Context, q *Query) (ExtResult, error) {
	r, err := s.ix.exec(ctx, s.s, q, core.Options{Objective: core.ObjMaxSum})
	return r.Ext, err
}

// SolveMulti greedily selects k candidates, reusing the session's caches
// across the greedy rounds. Never panics; an invalid query or a contained
// failure degrades to an empty selection.
func (s *Session) SolveMulti(q *Query, k int) MultiResult {
	r, _ := s.SolveMultiContext(context.Background(), q, k)
	return r
}

// SolveMultiContext is SolveMulti with input validation and cooperative
// cancellation threaded into every greedy round; see SolveContext for the
// cache-consistency contract.
func (s *Session) SolveMultiContext(ctx context.Context, q *Query, k int) (MultiResult, error) {
	r, err := s.ix.exec(ctx, s.s, q, core.Options{Objective: core.ObjMulti, K: k})
	return r.Multi, err
}

// Neighbor is one entry of a KNearestFacilities or FacilitiesWithin answer.
type Neighbor struct {
	Facility PartitionID
	Dist     float64
}

// KNearestFacilities returns up to k facilities nearest to a point in
// ascending distance order with exact indoor distances. It returns nil when
// the point is outside the venue.
func (ix *Index) KNearestFacilities(p Point, facilities []PartitionID, k int) []Neighbor {
	pp := ix.locator.PartitionAt(p)
	if pp == NoPartition {
		return nil
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	parts, dists := ix.tree.KNearestFacilities(p, pp, fs, k)
	out := make([]Neighbor, len(parts))
	for i := range parts {
		out[i] = Neighbor{Facility: parts[i], Dist: dists[i]}
	}
	return out
}

// FacilitiesWithin returns every facility within indoor distance r of a
// point (inclusive), in ascending distance order. It returns nil when the
// point is outside the venue.
func (ix *Index) FacilitiesWithin(p Point, facilities []PartitionID, r float64) []Neighbor {
	pp := ix.locator.PartitionAt(p)
	if pp == NoPartition {
		return nil
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	res := ix.tree.RangeFacilities(p, pp, fs, r)
	out := make([]Neighbor, len(res))
	for i, e := range res {
		out[i] = Neighbor{Facility: e.Facility, Dist: e.Dist}
	}
	return out
}

// Temporal variation: doors with opening schedules.

// Schedule is a door's daily opening schedule (empty = always open).
type Schedule = temporal.Schedule

// Timetable assigns opening schedules to a venue's doors.
type Timetable = temporal.Timetable

// Daily returns a schedule with a single daily opening window.
func Daily(open, close time.Duration) Schedule { return temporal.Daily(open, close) }

// NewTimetable creates an empty timetable over the indexed venue; doors
// without schedules stay always open.
func (ix *Index) NewTimetable() *Timetable { return temporal.NewTimetable(ix.venue) }

// SolveAt answers a MinMax IFLS query at a time of day: doors closed at
// that time cannot be traversed. The computation runs exactly on the masked
// door graph (the precomputed index assumes static topology), so it costs
// one Dijkstra per client rather than the indexed solver's shared search.
// Never panics; a contained failure degrades to the "not found" result.
func (ix *Index) SolveAt(tt *Timetable, q *Query, at time.Duration) Result {
	var r Result
	if err := guard(func() { r = temporal.SolveAt(ix.tree.Graph(), tt, q, at).Result }); err != nil {
		return degraded.MinMax
	}
	return r
}

// DistanceAt returns the exact indoor distance between two points at a time
// of day, +Inf when closed doors make them mutually unreachable.
func (ix *Index) DistanceAt(tt *Timetable, at time.Duration, p, q Point) (float64, error) {
	pp := ix.locator.PartitionAt(p)
	qp := ix.locator.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return 0, fmt.Errorf("ifls: point outside venue")
	}
	a := Client{Loc: p, Part: pp}
	b := Client{Loc: q, Part: qp}
	return temporal.DistAt(ix.tree.Graph(), tt, at, a, b), nil
}

// SimulationConfig parameterizes NewSimulation.
type SimulationConfig = motion.Config

// Simulation moves a population of walkers through the venue along exact
// shortest indoor routes — the paper's dynamic-crowd / moving-clients
// scenario. Snapshot feeds the current population straight into a Query.
type Simulation = motion.Simulation

// NewSimulation creates a crowd simulation over the indexed venue.
func (ix *Index) NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return motion.NewSimulation(ix.venue, ix.tree.Graph(), cfg)
}

// Continuous maintenance: a standing IFLS query kept up to date as clients
// move and doors open or close on schedule.

// ContinuousEngine maintains one MinMax IFLS answer incrementally across
// simulation ticks, re-solving only clients whose cached distance state a
// tick actually disturbed. See internal/continuous for the exactness
// contract: every maintained answer is bit-identical to a fresh solve over
// the same snapshot.
type ContinuousEngine = continuous.Engine

// ContinuousEvent is one engine notification delivered to Subscribe
// callbacks.
type ContinuousEvent = continuous.Event

// ContinuousStats holds an engine's lifetime counters.
type ContinuousStats = continuous.Stats

// Continuous event kinds.
const (
	// ContinuousTick is delivered after every tick.
	ContinuousTick = continuous.EventTick
	// ContinuousAnswerChanged is delivered, after the tick event, when
	// the maintained answer differs from the previous tick's.
	ContinuousAnswerChanged = continuous.EventAnswerChanged
)

// ContinuousConfig parameterizes NewContinuous. The engine is wired to the
// Index's tree and metrics automatically; only the standing query, the
// population, and (optionally) a door timetable need to be supplied.
type ContinuousConfig struct {
	// Sim is the client population. The engine owns stepping it: callers
	// must not call Sim.Step while the engine is live. Required.
	Sim *Simulation
	// Existing and Candidates are the standing query's facility sets.
	Existing, Candidates []PartitionID
	// Timetable, when non-nil, drives door-schedule transitions. It must
	// be built over the indexed venue (NewTimetable).
	Timetable *Timetable
	// ClockStart is the simulated time-of-day at tick zero.
	ClockStart time.Duration
}

// NewContinuous creates a standing-query engine over the indexed venue.
// Drive it with Tick; observe it with Subscribe, Result, and Stats. The
// index's metrics sink (WithMetrics), when set, receives the engine's
// continuous_* counters.
func (ix *Index) NewContinuous(cfg ContinuousConfig) (*ContinuousEngine, error) {
	return continuous.New(continuous.Config{
		Tree:       ix.tree,
		Sim:        cfg.Sim,
		Existing:   cfg.Existing,
		Candidates: cfg.Candidates,
		Timetable:  cfg.Timetable,
		ClockStart: cfg.ClockStart,
		Metrics:    ix.metrics,
	})
}

// Workload generation, re-exported for examples and downstream load tests.

// Distribution selects a spatial client distribution.
type Distribution = workload.Distribution

// Client distribution kinds.
const (
	Uniform = workload.Uniform
	Normal  = workload.Normal
)

// WorkloadGenerator draws clients and facility selections for a venue.
type WorkloadGenerator = workload.Generator

// NewWorkloadGenerator builds a generator for v.
func NewWorkloadGenerator(v *Venue) *WorkloadGenerator { return workload.NewGenerator(v) }

// RandomQuery draws a complete synthetic-setting query: nExist existing
// facilities and nCand candidates chosen uniformly from rooms, and nClients
// clients from the given distribution. Impossible requests (more facilities
// than rooms, an unknown distribution) yield an error wrapping
// ErrInvalidWorkload.
func RandomQuery(v *Venue, nExist, nCand, nClients int, dist Distribution, sigma float64, seed int64) (*Query, error) {
	g := workload.NewGenerator(v)
	return g.Query(nExist, nCand, nClients, dist, sigma, rand.New(rand.NewSource(seed)))
}
