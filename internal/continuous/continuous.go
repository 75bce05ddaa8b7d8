// Package continuous maintains a standing IFLS answer over a changing
// world: clients move (a motion.Simulation advances in ticks) and doors
// open and close (a temporal.Timetable crosses schedule boundaries). The
// paper names exactly this setting as future work ("we plan to consider
// moving clients"); the engine here answers it by *maintaining* the query
// instead of re-solving from scratch each tick.
//
// # Incremental model
//
// The engine caches, per client, a distance row: the distance nn to its
// nearest existing facility and, per candidate, the clipped distance
// min(nn, d(client, candidate)), computed from the same vip.Explorer
// primitives the batch solver uses. Clipping is the paper's Lemma 5.1
// client pruning: a candidate only matters to a client where it is closer
// than the client's nearest existing facility. Between ticks only clients
// whose position changed (walkers mid-trip) recompute their rows; dwelling
// walkers reuse theirs.
//
// A row resolve computes nn first and then relaxes the candidates only
// through doors whose in-partition offset is below nn. Both steps skip a
// door whose offset has reached the bound: every door-to-facility distance
// is >= 0 and rounded addition is monotone, so a sum through such a door
// is >= nn and can change neither nn nor a clipped entry. The rows are
// therefore bit-identical to min(nn, d) over an unbounded resolve.
//
// The per-tick combine scans the clipped rows row-major into a
// per-candidate maximum and reproduces the solver's exact semantics —
// Found iff the best candidate strictly improves on the status quo, ties
// broken to the lowest candidate partition ID — so the maintained answer
// is identical to a fresh core.Exec over the same snapshot (pinned by the
// package's differential tests).
//
// # Topology eras
//
// Door schedules partition simulated time into eras of constant topology.
// When the timetable's open-door mask changes between ticks, the engine
// materializes the new era (temporal.Timetable.Snapshot plus a fresh
// VIP-tree over the snapshot venue — rare, amortized over the era) and
// invalidates cached rows *selectively*: a client row survives a
// transition when its partition's distance state is provably unchanged.
// The proof compares, per occupied partition, the partition's open-door
// set and the exact door-to-facility distance vectors in the old and new
// eras; any point-to-facility distance from a partition decomposes as
// min over doors of (in-partition offset + door-to-facility distance), so
// equal door sets and equal vectors imply every cached row from that
// partition is still exact. Rows reachable only through the flipped door
// fail the comparison and are recomputed.
//
// # Concurrency
//
// An Engine is a single-goroutine value, like the Session and Explorer it
// builds on: Tick, Subscribe, and the getters must not be called
// concurrently. Wrap it in the serving layer for shared access.
package continuous

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/vip"
)

// EventKind classifies engine events.
type EventKind uint8

const (
	// EventTick is delivered after every tick, carrying the maintained
	// result for the new snapshot.
	EventTick EventKind = iota
	// EventAnswerChanged is delivered (after the tick's EventTick) when
	// the maintained result differs from the previous tick's.
	EventAnswerChanged
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventTick:
		return "tick"
	case EventAnswerChanged:
		return "answer_changed"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one engine notification.
type Event struct {
	Kind EventKind
	// Tick is the tick number (1 for the first Tick call).
	Tick int64
	// At is the simulated time-of-day of the snapshot.
	At time.Duration
	// Result is the maintained IFLS answer for the snapshot.
	Result core.Result
	// Resolved and Reused split the snapshot's clients into rows
	// recomputed this tick versus carried over from earlier ticks.
	Resolved, Reused int
	// Invalidated counts client rows discarded by a door-schedule
	// transition during this tick (0 on steady-state ticks).
	Invalidated int
}

// Config parameterizes New.
type Config struct {
	// Tree is the VIP-tree over the base venue (all doors open). Required.
	Tree *vip.Tree
	// Sim is the client population. The engine owns stepping it: callers
	// must not call Sim.Step while the engine is live. Required.
	Sim *motion.Simulation
	// Existing and Candidates are the standing query's facility sets.
	Existing, Candidates []indoor.PartitionID
	// Timetable, when non-nil, drives door-schedule transitions. Its venue
	// must be the Tree's venue.
	Timetable *temporal.Timetable
	// ClockStart is the simulated time-of-day at tick zero.
	ClockStart time.Duration
	// TreeOptions builds era trees after a transition; zero-valued fields
	// fall back to vip.DefaultOptions.
	TreeOptions vip.Options
	// Metrics, when non-nil, receives the engine's counters.
	Metrics *obs.Metrics
}

// row is one client's cached distance state, exact for the era it was
// computed in and the position it was computed at.
type row struct {
	valid bool
	loc   geom.Point
	part  indoor.PartitionID
	// nn is the distance to the nearest existing facility (+Inf when the
	// query has none).
	nn float64
	// cand holds min(nn, distance) to each candidate, indexed like
	// Config.Candidates.
	cand []float64
}

// partSig is a partition's exact distance signature within one era: the
// partition's open doors (by base-venue ID, in era order) and, row-major,
// each door's distance to every query facility. Two eras in which a
// partition has equal signatures induce identical point-to-facility
// distances from anywhere in the partition, because any such distance is
// min over the partition's doors of (in-partition offset + the door's
// facility distance) and the offsets depend only on geometry, which eras
// never change.
type partSig struct {
	doors []indoor.DoorID
	dist  []float64
}

func (a *partSig) equal(b *partSig) bool {
	if len(a.doors) != len(b.doors) || len(a.dist) != len(b.dist) {
		return false
	}
	for i, d := range a.doors {
		if d != b.doors[i] {
			return false
		}
	}
	for i, d := range a.dist {
		if d != b.dist[i] {
			return false
		}
	}
	return true
}

// era is one constant-topology stretch of simulated time: the (possibly
// snapshot) venue, its tree, the base→era door translation, and the era's
// memoized explorers and partition signatures.
type era struct {
	venue   *indoor.Venue
	tree    *vip.Tree
	doorMap temporal.DoorMap // base door → era door
	rev     []indoor.DoorID  // era door → base door
	mask    []bool           // base-venue per-door open flags
	facs    []indoor.PartitionID

	explorers map[indoor.PartitionID]*vip.Explorer
	sigs      map[indoor.PartitionID]*partSig

	// offScratch backs the one-hot offset vectors used by signature.
	offScratch []float64
}

func (er *era) explorer(p indoor.PartitionID) *vip.Explorer {
	if e, ok := er.explorers[p]; ok {
		return e
	}
	e := er.tree.NewExplorer(p)
	er.explorers[p] = e
	return e
}

// signature computes (and memoizes) the partition's distance signature.
func (er *era) signature(p indoor.PartitionID) *partSig {
	if s, ok := er.sigs[p]; ok {
		return s
	}
	e := er.explorer(p)
	doors := e.SrcDoors()
	sig := &partSig{
		doors: make([]indoor.DoorID, len(doors)),
		dist:  make([]float64, 0, len(doors)*len(er.facs)),
	}
	// Translate the era's door IDs back to base IDs so signatures from
	// different eras are comparable. The era venue's doors are the base
	// venue's open doors in base order, so equal base-ID lists imply the
	// same door locations in the same row order.
	for i, d := range doors {
		sig.doors[i] = er.rev[d]
	}
	if cap(er.offScratch) < len(doors) {
		er.offScratch = make([]float64, len(doors))
	}
	off := er.offScratch[:len(doors)]
	for j := range doors {
		// One-hot offsets: distance 0 through door j, +Inf through the
		// rest, so PointToPartition yields exactly door j's facility
		// distance row.
		for i := range off {
			off[i] = math.Inf(1)
		}
		off[j] = 0
		for _, f := range er.facs {
			if f == p {
				// PointToPartition special-cases the source partition to
				// 0 regardless of offsets; the per-door row for it is
				// also identically 0 in every era.
				sig.dist = append(sig.dist, 0)
				continue
			}
			sig.dist = append(sig.dist, e.PointToPartition(off, f))
		}
	}
	er.sigs[p] = sig
	return sig
}

// Engine maintains a standing IFLS answer. Single-goroutine; see the
// package documentation.
type Engine struct {
	sim        *motion.Simulation
	tt         *temporal.Timetable
	baseVenue  *indoor.Venue
	baseTree   *vip.Tree
	existing   []indoor.PartitionID
	candidates []indoor.PartitionID
	treeOpts   vip.Options
	m          *obs.Metrics

	era   *era
	rows  []row
	clock time.Duration
	tick  int64

	last    core.Result
	offsets []float64 // scratch for PointOffsetsAppend
	obj     []float64 // combine's per-candidate objective, indexed like candidates

	// sums counts the (door, facility) additions resolve evaluates, the
	// machine-independent work a tick's row resolve does.
	sums int64

	subs   map[int]func(Event)
	nextID int

	stats Stats
}

// Stats are the engine's lifetime counters (also mirrored into the
// configured obs.Metrics).
type Stats struct {
	// Ticks counts Tick calls; Transitions the subset that crossed a
	// door-schedule boundary and rebuilt the topology era.
	Ticks, Transitions int64
	// Resolved and Reused total the per-tick client row recomputes and
	// carry-overs; Invalidated totals rows discarded by transitions.
	Resolved, Reused, Invalidated int64
	// AnswerChanges counts ticks whose result differed from the previous.
	AnswerChanges int64
}

// New builds an engine and computes the initial answer for the
// simulation's starting snapshot at Config.ClockStart.
func New(cfg Config) (*Engine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("continuous: nil tree")
	}
	if cfg.Sim == nil {
		return nil, fmt.Errorf("continuous: nil simulation")
	}
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("continuous: no candidate locations")
	}
	opts := cfg.TreeOptions
	if opts.LeafFanout == 0 && opts.NodeFanout == 0 {
		opts = vip.DefaultOptions()
	}
	e := &Engine{
		sim:        cfg.Sim,
		tt:         cfg.Timetable,
		baseVenue:  cfg.Tree.Venue(),
		baseTree:   cfg.Tree,
		existing:   append([]indoor.PartitionID(nil), cfg.Existing...),
		candidates: append([]indoor.PartitionID(nil), cfg.Candidates...),
		treeOpts:   opts,
		m:          cfg.Metrics,
		clock:      cfg.ClockStart,
		obj:        make([]float64, len(cfg.Candidates)),
		subs:       make(map[int]func(Event)),
	}
	n := e.baseVenue.NumPartitions()
	for _, f := range append(append([]indoor.PartitionID(nil), e.existing...), e.candidates...) {
		if int(f) < 0 || int(f) >= n {
			return nil, fmt.Errorf("continuous: facility partition %d out of range [0,%d)", f, n)
		}
	}
	er, err := e.buildEra(e.clock)
	if err != nil {
		return nil, err
	}
	e.era = er
	snap := e.sim.Snapshot()
	e.rows = make([]row, len(snap))
	for i := range snap {
		e.resolve(&e.rows[i], snap[i])
	}
	e.last = e.combine()
	return e, nil
}

// facs returns the combined facility list signatures are computed over.
func (e *Engine) facs() []indoor.PartitionID {
	out := make([]indoor.PartitionID, 0, len(e.existing)+len(e.candidates))
	out = append(out, e.existing...)
	return append(out, e.candidates...)
}

// buildEra materializes the topology era for time-of-day t. With no
// timetable, or when every door is open, the base venue and tree are
// reused; otherwise the timetable snapshot is indexed with a fresh tree.
func (e *Engine) buildEra(t time.Duration) (*era, error) {
	n := e.baseVenue.NumDoors()
	er := &era{
		venue:     e.baseVenue,
		tree:      e.baseTree,
		mask:      allOpen(n),
		facs:      e.facs(),
		explorers: make(map[indoor.PartitionID]*vip.Explorer),
		sigs:      make(map[indoor.PartitionID]*partSig),
	}
	if e.tt != nil {
		er.mask = e.tt.Mask(t)
	}
	if allTrue(er.mask) {
		er.doorMap = identityDoorMap(n)
	} else {
		venue, doorMap, err := e.tt.Snapshot(t)
		if err != nil {
			return nil, fmt.Errorf("continuous: materializing era at %v: %w", t, err)
		}
		tree, err := vip.Build(venue, e.treeOpts)
		if err != nil {
			return nil, fmt.Errorf("continuous: indexing era at %v: %w", t, err)
		}
		er.venue, er.tree, er.doorMap = venue, tree, doorMap
	}
	er.rev = make([]indoor.DoorID, er.venue.NumDoors())
	for base, ed := range er.doorMap {
		if ed != indoor.NoDoor {
			er.rev[ed] = indoor.DoorID(base)
		}
	}
	return er, nil
}

func identityDoorMap(n int) temporal.DoorMap {
	m := make(temporal.DoorMap, n)
	for i := range m {
		m[i] = indoor.DoorID(i)
	}
	return m
}

func allOpen(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

func allTrue(m []bool) bool {
	for _, b := range m {
		if !b {
			return false
		}
	}
	return true
}

func maskEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// resolve recomputes one client's distance row against the current era,
// through the partition's memoized signature matrix: dist(x, f) = min over
// the partition's doors j of offset_j(x) + D[j][f]. This is bit-identical
// to a direct per-facility Explorer.PointToPartition — rounded addition is
// monotone, so the min distributes over it — but costs a dense loop per
// client instead of a tree walk per (client, facility); the matrix is paid
// for once per (era, occupied partition) and is the same one transition()
// compares across eras.
//
// nn comes first, over the existing-facility columns, and then bounds the
// candidate pass: each cand[k] starts at nn and relaxes only through doors
// whose offset is below nn, so the row stores min(nn, d(x, n_k)). A door
// with offset_j >= nn is skipped in both passes; D is >= 0, so every sum
// through it is >= nn and could lower neither nn nor a clipped entry.
func (e *Engine) resolve(r *row, c core.Client) {
	ex := e.era.explorer(c.Part)
	e.offsets = ex.PointOffsetsAppend(e.offsets[:0], c.Loc)
	sig := e.era.signature(c.Part)
	nf := len(e.era.facs)
	ne := len(e.existing)
	if r.cand == nil {
		r.cand = make([]float64, len(e.candidates))
	}
	// A facility in the client's own partition is at distance 0
	// (PointToPartition's source special case); the signature stores zero
	// rows for it, which the loops below would inflate by the door offset.
	nn := math.Inf(1)
	if slices.Contains(e.existing, c.Part) {
		nn = 0
	} else {
		for j, oj := range e.offsets {
			if oj >= nn {
				continue
			}
			for _, v := range sig.dist[j*nf : j*nf+ne] {
				if d := oj + v; d < nn {
					nn = d
				}
			}
			e.sums += int64(ne)
		}
	}
	for k := range r.cand {
		r.cand[k] = nn
	}
	for j, oj := range e.offsets {
		if oj >= nn {
			continue
		}
		for k, v := range sig.dist[j*nf+ne : (j+1)*nf] {
			if d := oj + v; d < r.cand[k] {
				r.cand[k] = d
			}
		}
		e.sums += int64(nf - ne)
	}
	for k, f := range e.candidates {
		if f == c.Part {
			r.cand[k] = 0
		}
	}
	r.nn = nn
	r.loc, r.part = c.Loc, c.Part
	r.valid = true
}

// combine folds the cached rows into the exact MinMax result, reproducing
// the batch solver's semantics: the status quo is the maximum
// nearest-existing distance; a candidate's objective is the maximum over
// clients of min(nearest-existing, candidate distance) — the clipped row
// entry; the answer is the lowest-objective candidate, ties broken to the
// lowest candidate partition ID; Found requires a strict improvement over
// the status quo. The rows are scanned in order, each into the
// per-candidate maxima.
func (e *Engine) combine() core.Result {
	if len(e.rows) == 0 {
		return core.Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN()}
	}
	statusQuo := 0.0
	obj := e.obj
	clear(obj)
	for i := range e.rows {
		r := &e.rows[i]
		if r.nn > statusQuo {
			statusQuo = r.nn
		}
		for k, d := range r.cand {
			if d > obj[k] {
				obj[k] = d
			}
		}
	}
	best := indoor.NoPartition
	bestObj := math.Inf(1)
	for k, f := range e.candidates {
		if obj[k] < bestObj || (obj[k] == bestObj && f < best) {
			bestObj, best = obj[k], f
		}
	}
	if best == indoor.NoPartition || bestObj >= statusQuo {
		return core.Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN()}
	}
	return core.Result{Found: true, Answer: best, Objective: bestObj}
}

// transition crosses into the era at the engine's current clock,
// invalidating exactly the cached rows whose partition's distance state
// changed. Returns the number of rows invalidated.
func (e *Engine) transition() (int, error) {
	next, err := e.buildEra(e.clock)
	if err != nil {
		return 0, err
	}
	// Group the valid rows by partition, then compare each occupied
	// partition's signature across the eras. Signatures on the old era hit
	// warm explorers; signatures on the new era pre-warm the explorers the
	// recomputes below will use.
	changed := make(map[indoor.PartitionID]bool)
	for i := range e.rows {
		r := &e.rows[i]
		if !r.valid {
			continue
		}
		if _, seen := changed[r.part]; !seen {
			changed[r.part] = !e.era.signature(r.part).equal(next.signature(r.part))
		}
	}
	invalidated := 0
	for i := range e.rows {
		r := &e.rows[i]
		if r.valid && changed[r.part] {
			r.valid = false
			invalidated++
		}
	}
	e.era = next
	return invalidated, nil
}

// Tick advances the simulation (and the simulated clock) by dt and brings
// the maintained answer up to date: door-schedule transitions rebuild the
// topology era and invalidate affected rows, moved clients recompute their
// rows, everything else is reused. Subscribers receive an EventTick (and,
// when the result changed, an EventAnswerChanged) before Tick returns.
//
// A transition whose snapshot disconnects the venue fails; the engine's
// clock and simulation have advanced, but the maintained answer and rows
// are untouched, and the next successful Tick recovers by recomputing
// whatever the failed era left stale.
func (e *Engine) Tick(dt time.Duration) (core.Result, error) {
	if dt <= 0 {
		return core.Result{}, fmt.Errorf("continuous: non-positive tick %v", dt)
	}
	e.sim.Step(dt)
	e.clock += dt
	e.tick++
	e.stats.Ticks++

	invalidated := 0
	if e.tt != nil {
		mask := e.tt.Mask(e.clock)
		if !maskEqual(mask, e.era.mask) {
			n, err := e.transition()
			if err != nil {
				return core.Result{}, err
			}
			invalidated = n
			e.stats.Transitions++
			e.stats.Invalidated += int64(n)
			if e.m != nil {
				e.m.ContinuousInvalidation(n)
			}
		}
	}

	snap := e.sim.Snapshot()
	resolved, reused := 0, 0
	for i := range snap {
		r := &e.rows[i]
		if r.valid && r.loc == snap[i].Loc && r.part == snap[i].Part {
			reused++
			continue
		}
		e.resolve(r, snap[i])
		resolved++
	}
	e.stats.Resolved += int64(resolved)
	e.stats.Reused += int64(reused)

	res := e.combine()
	changedAnswer := !sameResult(res, e.last)
	e.last = res
	if changedAnswer {
		e.stats.AnswerChanges++
	}
	if e.m != nil {
		e.m.ContinuousTick(resolved, reused)
		if changedAnswer {
			e.m.ContinuousAnswerChange()
		}
	}
	ev := Event{
		Kind: EventTick, Tick: e.tick, At: e.clock, Result: res,
		Resolved: resolved, Reused: reused, Invalidated: invalidated,
	}
	e.publish(ev)
	if changedAnswer {
		ev.Kind = EventAnswerChanged
		e.publish(ev)
	}
	return res, nil
}

// sameResult compares the caller-visible answer fields (Found, Answer,
// Objective), treating two NaN objectives as equal.
func sameResult(a, b core.Result) bool {
	if a.Found != b.Found || a.Answer != b.Answer {
		return false
	}
	if math.IsNaN(a.Objective) && math.IsNaN(b.Objective) {
		return true
	}
	return a.Objective == b.Objective
}

func (e *Engine) publish(ev Event) {
	for _, fn := range e.subs {
		fn(ev)
	}
}

// Subscribe registers fn for event delivery. Events are delivered
// synchronously inside Tick, in undefined order across subscribers; fn
// must not call back into the engine. The returned cancel removes the
// subscription.
func (e *Engine) Subscribe(fn func(Event)) (cancel func()) {
	id := e.nextID
	e.nextID++
	e.subs[id] = fn
	return func() { delete(e.subs, id) }
}

// Result returns the maintained answer for the latest snapshot.
func (e *Engine) Result() core.Result { return e.last }

// Clock returns the simulated time-of-day of the latest snapshot.
func (e *Engine) Clock() time.Duration { return e.clock }

// Ticks returns the number of Tick calls so far.
func (e *Engine) Ticks() int64 { return e.tick }

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() Stats { return e.stats }

// Venue returns the current era's venue (the base venue, or the
// timetable snapshot after a transition). Partition IDs always match the
// base venue; door IDs are era-local.
func (e *Engine) Venue() *indoor.Venue { return e.era.venue }

// Tree returns the current era's VIP-tree — the index a from-scratch
// solve of the current snapshot runs against (the differential tests'
// oracle side).
func (e *Engine) Tree() *vip.Tree { return e.era.tree }

// Query materializes the standing query over the latest snapshot, ready
// for a from-scratch core.Exec against Tree.
func (e *Engine) Query() *core.Query {
	return &core.Query{
		Existing:   e.existing,
		Candidates: e.candidates,
		Clients:    e.sim.Snapshot(),
	}
}
