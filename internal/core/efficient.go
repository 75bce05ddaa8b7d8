package core

import (
	"context"
	"math"
	"time"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/pq"
	"github.com/indoorspatial/ifls/internal/vip"
)

// eaEntry is a traversal queue entry: a client partition paired with either
// a tree node or a facility partition.
type eaEntry struct {
	part  indoor.PartitionID // client partition p
	node  vip.NodeID
	fac   indoor.PartitionID
	isFac bool
}

// eaEvent is a retrieved (client, facility, distance) triple; events drive
// the d_low stepping.
type eaEvent struct {
	client int32
	fac    indoor.PartitionID
	isCand bool
	dist   float64
}

type eaState struct {
	t     *vip.Tree
	q     *Query
	venue *indoor.Venue
	res   Result

	active      []bool
	activeCount int
	offsets     [][]float64

	// Per-client knowledge.
	bestExist    []float64 // nearest retrieved existing facility
	minRetrieved []float64 // nearest retrieved facility of any kind
	candCount    []int32   // retrieved candidate pairs (memory metric)
	activated    [][]int32 // candidate indexes activated (dist <= dlow)

	// Per-candidate coverage at the current d_low.
	covered []int32 // number of active clients with activated pair
	// maxCovered upper-bounds max(covered); checkAnswer skips its scan
	// while maxCovered < activeCount. Stale after pruning, which only
	// costs an occasional wasted scan.
	maxCovered int32

	queue  *pq.Bucket[eaEntry]
	events *pq.Bucket[eaEvent]

	// pruneHeap orders clients by their best retrieved existing-facility
	// distance (lazy entries; stale ones are skipped), so prune(bound)
	// costs O(pruned) amortized instead of a full scan per bound advance.
	pruneHeap *pq.Bucket[int32]
	// satHeap orders clients by their best retrieved distance of any
	// kind; unsatisfied counts active clients with nothing retrieved
	// within the bound yet, making checkList O(1) amortized.
	satHeap     *pq.Bucket[int32]
	satisfied   []bool
	unsatisfied int

	gd, dlow float64
	isFirst  bool

	// ctx is non-nil only when the run's context is cancellable
	// (ctx.Done() != nil); checkpoints are skipped entirely otherwise. err
	// records the first observed cancellation.
	ctx context.Context
	err error

	// rec is the per-query span recorder; nil when observability is
	// disabled, in which case every hook site is a single nil comparison
	// and the run allocates exactly as much as an unobserved one.
	// obsStart anchors the spans' monotonic Elapsed offsets.
	rec      obs.Recorder
	obsStart time.Time

	// Top-k mode (ObjTopK): when topK > 0 the run records every
	// covering candidate with its exact objective instead of stopping at
	// the first.
	topK   int
	ranked []RankedCandidate

	// sc is the backing Scratch (the caller's pooled one, or the private
	// one Exec supplies). Its dense columns hold the facility roles, client
	// grouping, and visited marks.
	sc *Scratch

	// cache resolves partitions to explorers: the Scratch's run-local
	// cache, or Session's persistent one.
	cache *explorerCache

	// curPart is the source partition of the entry being expanded; it
	// routes the vip.Frontier hook calls back to the right traversal.
	curPart indoor.PartitionID
}

// newEAState resets the MinMax traversal state held by sc. Dense columns
// reset by epoch bump, slices by truncation — lengths reset, capacity
// retained, result-bearing slices (ranked) never pooled because they escape
// to the caller.
func newEAState(t *vip.Tree, q *Query, sc *Scratch) *eaState {
	m := len(q.Clients)
	s := &sc.ea
	s.t, s.q, s.venue = t, q, t.Venue()
	s.res = Result{}
	s.sc = sc
	sc.claim(t)
	s.cache = &sc.explorers
	s.active = resize(s.active, m)
	s.activeCount = m
	s.offsets = resizeLists(s.offsets, m)
	s.bestExist = resize(s.bestExist, m)
	s.minRetrieved = resize(s.minRetrieved, m)
	s.candCount = resize(s.candCount, m)
	s.activated = resizeLists(s.activated, m)
	s.covered = resize(s.covered, len(q.Candidates))
	s.maxCovered = 0
	s.queue, s.events = &sc.queue, &sc.events
	s.pruneHeap, s.satHeap = &sc.pruneHeap, &sc.satHeap
	s.satisfied = resize(s.satisfied, m)
	s.gd, s.dlow = 0, 0
	s.isFirst = false
	s.ctx, s.err = nil, nil
	s.rec, s.obsStart = nil, time.Time{}
	s.topK = 0
	s.ranked = nil // escapes via finishTopK; never pooled
	s.unsatisfied = m
	for _, f := range q.Existing {
		sc.markPart(f, pfExist)
	}
	for i, f := range q.Candidates {
		if !sc.partHas(f, pfCand) {
			sc.markPart(f, pfCand)
			sc.partCand[f] = int32(i)
		}
	}
	inf := math.Inf(1)
	for i := range q.Clients {
		s.active[i] = true
		s.bestExist[i] = inf
		s.minRetrieved[i] = inf
	}
	return s
}

// bindContext arms the cancellation checkpoints. Background-like contexts
// (Done() == nil) are not stored: they can never cancel, so the run skips
// checkpoint work entirely.
func (s *eaState) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
}

// bindRecorder attaches a per-query span recorder and anchors the span
// timestamps. A nil recorder leaves the state on the exact unobserved code
// path (the emit hooks reduce to one nil comparison each).
func (s *eaState) bindRecorder(rec obs.Recorder) {
	if rec != nil {
		s.rec = rec
		s.obsStart = time.Now()
	}
}

// emit sends one span event to the bound recorder. Callers on hot paths
// guard with s.rec != nil so the disabled path never pays the call.
func (s *eaState) emit(stage obs.Stage, gd float64) {
	if s.rec == nil {
		return
	}
	s.rec.Event(obs.Span{
		Stage:         stage,
		Elapsed:       time.Since(s.obsStart),
		DistanceCalcs: s.res.Stats.DistanceCalcs,
		Retrievals:    s.res.Stats.Retrievals,
		QueuePops:     s.res.Stats.QueuePops,
		PrunedClients: s.res.Stats.PrunedClients,
		Gd:            gd,
	})
}

// cancelled is the cancellation checkpoint: it polls the bound context and
// latches the first error into s.err. With no cancellable context bound it
// is a single nil comparison.
func (s *eaState) cancelled() bool {
	if s.ctx == nil {
		return false
	}
	if s.err != nil {
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.err = faults.Cancelled(err)
		return true
	}
	return false
}

func (s *eaState) explorer(p indoor.PartitionID) *vip.Explorer {
	return s.cache.get(s.t, p)
}

// retrieve records facility f for client ci at distance d. The traversal
// retrieves each (client, facility) pair exactly once — Visit dedups nodes
// per source and every facility lives in exactly one leaf — so the event
// pushes need no per-pair dedup.
func (s *eaState) retrieve(ci int32, f indoor.PartitionID, d float64) {
	s.res.Stats.Retrievals++
	if d < s.minRetrieved[ci] {
		s.minRetrieved[ci] = d
		if !s.satisfied[ci] {
			s.satHeap.Push(ci, d)
		}
	}
	fl := s.sc.partFlags(f)
	if fl&pfExist != 0 {
		if d < s.bestExist[ci] {
			s.bestExist[ci] = d
			s.pruneHeap.Push(ci, d)
		}
		s.events.Push(eaEvent{client: ci, fac: f, dist: d}, d)
	}
	if fl&pfCand != 0 {
		s.candCount[ci]++
		s.events.Push(eaEvent{client: ci, fac: f, isCand: true, dist: d}, d)
	}
}

// pruneClient removes client ci from C, rolling its activations out of the
// candidate coverage counters.
func (s *eaState) pruneClient(ci int32) {
	if !s.active[ci] {
		return
	}
	s.active[ci] = false
	s.activeCount--
	s.res.Stats.PrunedClients++
	if s.rec != nil {
		s.emit(obs.StagePrune, s.gd)
	}
	if !s.satisfied[ci] {
		s.satisfied[ci] = true
		s.unsatisfied--
	}
	for _, k := range s.activated[ci] {
		s.covered[k]--
	}
	s.sc.removeClient(s.q.Clients[ci].Part, ci)
}

// prune applies Lemma 5.1 at the given bound: a client whose retrieved
// nearest existing facility is within the bound cannot be improved by any
// candidate, so it leaves C. The lazy heap makes the amortized cost
// proportional to the clients actually pruned.
//
// Entries are lazy: every bestExist improvement pushes a fresh entry, so
// the heap may hold several keys per client. A client is pruned only
// against its live key (the one equal to its current bestExist) — a stale
// larger key popped later is skipped, never used as pruning evidence. The
// live key is always present for an active client because pops happen only
// here and a popped live key prunes immediately.
func (s *eaState) prune(bound float64) {
	for !s.pruneHeap.Empty() {
		if _, d := s.pruneHeap.Peek(); d > bound {
			return
		}
		ci, d := s.pruneHeap.Pop()
		if !s.active[ci] || d != s.bestExist[ci] {
			continue // stale key: re-pushed smaller, or already pruned
		}
		s.pruneClient(ci)
	}
}

// checkList reports whether every remaining client has retrieved at least
// one facility within the bound.
func (s *eaState) checkList(bound float64) bool {
	for !s.satHeap.Empty() {
		if _, d := s.satHeap.Peek(); d > bound {
			break
		}
		ci, _ := s.satHeap.Pop()
		if !s.satisfied[ci] {
			s.satisfied[ci] = true
			s.unsatisfied--
		}
	}
	return s.unsatisfied == 0
}

// drainEvents activates all retrieved pairs with distance <= bound:
// candidate coverage counters advance, and the events are consumed in
// ascending distance order.
func (s *eaState) drainEvents(bound float64) {
	for !s.events.Empty() {
		if _, d := s.events.Peek(); d > bound {
			return
		}
		ev, _ := s.events.Pop()
		s.activate(ev)
	}
}

func (s *eaState) activate(ev eaEvent) {
	if !ev.isCand || !s.active[ev.client] {
		return
	}
	// Only the first (smallest) event per pair counts; later duplicates
	// for the same pair are impossible because retrieval happens once per
	// (partition, facility) dequeue.
	k := s.sc.partCand[ev.fac]
	s.covered[k]++
	if s.covered[k] > s.maxCovered {
		s.maxCovered = s.covered[k]
	}
	s.activated[ev.client] = append(s.activated[ev.client], k)
}

// checkAnswer looks for a candidate covering every remaining client within
// the bound. Every covering candidate at the first such bound is an exact
// objective tie: its remaining clients are within d_low, every pruned
// client contributes at most its nearest-existing distance <= d_low, and no
// candidate can be below the optimum d_low — so the objective of each is
// exactly d_low. Among these ties the lowest candidate ID wins, the
// tie-break every answer path shares (see internal/difftest). Selecting by
// smallest max-distance-to-remaining-clients instead (as this scan once
// did) picks an arbitrary member of the tie class: the remaining-client
// maximum ignores the pruned clients that actually pin the objective, as
// the CPH tie in difftest.TestCPHTieBreakParity demonstrates.
func (s *eaState) checkAnswer(bound float64) (indoor.PartitionID, bool) {
	if s.activeCount == 0 {
		// Every client is within bound of an existing facility: no
		// candidate strictly improves the objective.
		return indoor.NoPartition, true
	}
	if s.maxCovered < int32(s.activeCount) {
		// No candidate can cover every remaining client yet; skip the
		// scan. maxCovered is a stale upper bound, so this only ever
		// skips scans that would find nothing.
		return indoor.NoPartition, false
	}
	best := indoor.NoPartition
	for k, n := range s.q.Candidates {
		if s.covered[k] != int32(s.activeCount) {
			continue
		}
		if best == indoor.NoPartition || n < best {
			best = n
		}
	}
	if best != indoor.NoPartition {
		return best, true
	}
	return indoor.NoPartition, false
}

// step advances d_low to the next retrieved distance in (d_low, gd],
// activating the pairs at that distance. It reports whether a step was
// taken.
func (s *eaState) step() bool {
	for !s.events.Empty() {
		if _, d := s.events.Peek(); d > s.gd {
			return false
		}
		ev, d := s.events.Pop()
		s.activate(ev)
		if d > s.dlow {
			s.dlow = d
			// Consume ties at the same distance so prune/checkAnswer see
			// a consistent horizon.
			for !s.events.Empty() {
				if _, nd := s.events.Peek(); nd > d {
					break
				}
				ev2, _ := s.events.Pop()
				s.activate(ev2)
			}
			return true
		}
	}
	return false
}

func (s *eaState) run() (Result, error) {
	q := s.q
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return noResult(), nil
	}
	if s.cancelled() {
		return Result{}, s.err
	}
	sc := s.sc

	// Algorithm 2 preamble: a client inside a facility partition retrieves
	// it at distance zero.
	for ci, c := range q.Clients {
		if sc.partFlags(c.Part)&(pfExist|pfCand) != 0 {
			s.retrieve(int32(ci), c.Part, 0)
		}
	}
	s.prune(0)
	for ci, c := range q.Clients {
		if s.active[ci] {
			sc.addClient(c.Part, int32(ci))
		}
	}
	for ci, c := range q.Clients {
		if s.active[ci] {
			s.offsets[ci] = s.explorer(c.Part).PointOffsetsAppend(s.offsets[ci][:0], c.Loc)
		}
	}
	if s.rec != nil {
		s.emit(obs.StageLocate, 0)
	}
	s.isFirst = s.checkList(0)
	if s.isFirst {
		s.drainEvents(0)
		if r, done := s.answerCheck(); done {
			return r, nil
		}
	}

	// Algorithm 3: seed the traversal queue with each populated
	// partition's leaf node, in client order (the touched-partition list
	// preserves first-client order, so seeding is deterministic and every
	// counter downstream is too).
	for _, pp := range sc.parts {
		p := indoor.PartitionID(pp)
		if len(sc.clientsOf[p]) == 0 {
			continue
		}
		leaf := s.t.Leaf(p)
		s.markVisited(p, leaf)
		s.queue.Push(eaEntry{part: p, node: leaf}, 0)
	}

	for !s.queue.Empty() {
		if s.cancelled() {
			return Result{}, s.err
		}
		entry, prio := s.queue.Pop()
		s.res.Stats.QueuePops++
		s.gd = prio
		if len(sc.clientsOf[entry.part]) > 0 {
			s.process(entry)
		}
		// Consume all entries at the same priority before evaluating the
		// bound, so "retrieved within Gd" includes ties at Gd.
		for !s.queue.Empty() {
			if _, np := s.queue.Peek(); np > prio {
				break
			}
			if s.cancelled() {
				return Result{}, s.err
			}
			e2, _ := s.queue.Pop()
			s.res.Stats.QueuePops++
			if len(sc.clientsOf[e2.part]) > 0 {
				s.process(e2)
			}
		}
		if s.rec != nil {
			// One span per global-bound advance: all ties at Gd consumed.
			s.emit(obs.StageQueuePop, s.gd)
		}

		if !s.isFirst {
			s.isFirst = s.checkList(s.gd)
			if s.isFirst {
				// First transition to the stepping phase: pairs at or
				// below the current horizon d_low must be activated and
				// answer-checked here, exactly as the preamble does at
				// d_low = 0. step only reports progress when d_low
				// strictly advances, so a candidate retrieved at
				// d == d_low (e.g. a client standing at the door of a
				// candidate partition, Gd = 0) would otherwise be
				// activated silently and its coverage never checked
				// before later pruning rolls it back.
				s.prune(s.dlow)
				s.drainEvents(s.dlow)
				if r, done := s.answerCheck(); done {
					return r, nil
				}
			}
		}
		if !s.isFirst {
			s.prune(s.gd)
			s.drainEvents(s.gd)
			s.dlow = s.gd
			if s.activeCount == 0 {
				return s.finish(indoor.NoPartition), nil
			}
			continue
		}
		for s.step() {
			if s.cancelled() {
				return Result{}, s.err
			}
			s.prune(s.dlow)
			if r, done := s.answerCheck(); done {
				return r, nil
			}
		}
	}

	// Queue exhausted: everything is retrieved; finish the stepping with
	// an unbounded horizon.
	s.gd = math.Inf(1)
	if !s.isFirst {
		s.isFirst = s.checkList(s.gd)
	}
	for s.step() {
		if s.cancelled() {
			return Result{}, s.err
		}
		s.prune(s.dlow)
		if r, done := s.answerCheck(); done {
			return r, nil
		}
	}
	s.prune(math.Inf(1))
	return s.finish(indoor.NoPartition), nil
}

// answerCheck evaluates the stop condition at the current d_low: in normal
// mode the first covering candidate ends the search; in top-k mode covering
// candidates accumulate until k are ranked.
func (s *eaState) answerCheck() (Result, bool) {
	if s.rec != nil {
		s.emit(obs.StageAnswerCheck, s.dlow)
	}
	if s.topK > 0 {
		if s.collectCovering() {
			return s.res, true
		}
		return Result{}, false
	}
	if a, ok := s.checkAnswer(s.dlow); ok {
		return s.finish(a), true
	}
	return Result{}, false
}

func (s *eaState) markVisited(p indoor.PartitionID, n vip.NodeID) bool {
	return s.sc.visit(p, n)
}

// eaState implements vip.Frontier for the traversal source set by process:
// Tree.Expand drives the bottom-up expansion rule and these hooks queue the
// resulting nodes and facility partitions.

// Visit marks a node visited for the current source partition.
func (s *eaState) Visit(n vip.NodeID) bool { return s.markVisited(s.curPart, n) }

// PushNode enqueues a tree node for the current source partition.
func (s *eaState) PushNode(n vip.NodeID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, node: n}, prio)
}

// Wanted reports whether a facility partition participates in the query.
func (s *eaState) Wanted(f indoor.PartitionID) bool {
	return s.sc.partFlags(f)&(pfExist|pfCand) != 0
}

// PushFacility enqueues a facility partition for the current source.
func (s *eaState) PushFacility(f indoor.PartitionID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, fac: f, isFac: true}, prio)
}

// process expands a dequeued entry: a facility partition is retrieved for
// the partition's remaining clients; a tree node expands through
// vip.Tree.Expand (parent, then leaf partitions or children — the order the
// solver's determinism relies on).
func (s *eaState) process(entry eaEntry) {
	p := entry.part
	e := s.explorer(p)
	if entry.isFac {
		for _, ci := range s.sc.clientsOf[p] {
			d := e.PointToPartition(s.offsets[ci], entry.fac)
			s.res.Stats.DistanceCalcs++
			s.retrieve(ci, entry.fac, d)
		}
		return
	}
	s.curPart = p
	s.t.Expand(e, p, entry.node, s)
}

// retainedBytes estimates the solver's simultaneously-held state: explorer
// distance vectors, per-client retrieval bookkeeping (each retrieved
// candidate pair transits the event queue as a 16-byte record), visited-node
// stamps, and the live queues.
func (s *eaState) retainedBytes() int {
	total := s.cache.retainedBytes()
	const pairEntry = 16
	for ci := range s.q.Clients {
		total += int(s.candCount[ci])*pairEntry + len(s.activated[ci])*4 + len(s.offsets[ci])*8 + 64
	}
	total += s.sc.visitCount * 4
	total += s.queue.Len()*32 + s.events.Len()*40
	total += len(s.covered) * 4
	return total
}

func (s *eaState) finish(answer indoor.PartitionID) Result {
	s.res.Stats.RetainedBytes = s.retainedBytes()
	s.res.Answer = answer
	if answer == indoor.NoPartition {
		s.res.Found = false
		s.res.Objective = math.NaN()
		return s.res
	}
	s.res.Found = true
	s.res.Objective = s.dlow
	// d_low equals the chosen candidate's exact objective, except in the
	// degenerate case where the answer was found during the preamble
	// (every remaining client sits inside the candidate partition).
	if s.dlow == 0 {
		s.res.Objective = 0
	}
	return s.res
}
