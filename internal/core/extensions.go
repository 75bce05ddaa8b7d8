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

// ExtResult is the outcome of a MinDist or MaxSum query (Section 7
// extensions). A plain value owned by the caller.
type ExtResult struct {
	// Answer is the best candidate, NoPartition when the query has no
	// clients or no candidates.
	Answer indoor.PartitionID
	// Objective is the exact objective of Answer: the total
	// client-to-nearest-facility distance for MinDist, or the number of
	// captured clients for MaxSum.
	Objective float64
	// Improves reports whether Answer strictly improves over the status
	// quo (lower total for MinDist; at least one captured client for
	// MaxSum).
	Improves bool
	// Stats summarizes solver work.
	Stats Stats
}

// extObjective is the strategy a Section 7 variant plugs into the shared
// bottom-up traversal: it receives retrieval, bound-advance, and prune
// events, and decides when the answer is certain.
type extObjective interface {
	// retrieved reports an exact (client, candidate) distance, observed
	// while the client was still unpruned at global bound gd.
	retrieved(ci int, candIdx int, d, gd float64)
	// clientPruned reports that client ci left C with exact
	// nearest-existing distance dNN; the strategy settles the client's
	// contribution for every candidate.
	clientPruned(ci int, dNN float64)
	// boundAdvanced reports a new global bound.
	boundAdvanced(gd float64)
	// answer returns the best candidate index and whether it is certain
	// at bound gd.
	answer(gd float64) (int, bool)
}

// extState runs the efficient approach's traversal (grouped clients, single
// VIP-tree over Fe ∪ Fn, Lemma 5.1 pruning) for a pluggable objective. Like
// eaState, its facility roles, client grouping, and visited marks live in
// the backing Scratch's dense epoch-stamped columns.
type extState struct {
	t     *vip.Tree
	q     *Query
	res   *Stats
	obj   extObjective
	cands []indoor.PartitionID

	active      []bool
	activeCount int
	offsets     [][]float64
	bestExist   []float64

	queue *pq.Bucket[eaEntry]
	// pruneHeap orders clients by best retrieved existing distance (lazy
	// entries), so prune(bound) avoids a full client scan per bound
	// advance.
	pruneHeap *pq.Bucket[int32]
	gd        float64

	// ctx/err mirror eaState's cancellation checkpoints: ctx is non-nil
	// only for cancellable contexts, and err latches the first observed
	// cancellation.
	ctx context.Context
	err error

	// rec/obsStart mirror eaState's span recorder: nil rec keeps every
	// hook a single nil comparison.
	rec      obs.Recorder
	obsStart time.Time

	// sc/cache/curPart mirror eaState: the backing Scratch, the explorer
	// cache in use, and the source partition of the entry being expanded
	// through vip.Tree.Expand.
	sc      *Scratch
	cache   *explorerCache
	curPart indoor.PartitionID
}

// newExtState resets the shared extension traversal state held by sc; see
// newEAState for the reset contract.
func newExtState(t *vip.Tree, q *Query, obj extObjective, stats *Stats, sc *Scratch) *extState {
	m := len(q.Clients)
	s := &sc.ext
	s.t, s.q, s.res, s.obj = t, q, stats, obj
	s.sc = sc
	sc.claim(t)
	s.cache = &sc.explorers
	s.cands = s.cands[:0]
	s.active = resize(s.active, m)
	s.offsets = resizeLists(s.offsets, m)
	s.bestExist = resize(s.bestExist, m)
	s.queue = &sc.queue
	s.pruneHeap = &sc.pruneHeap
	s.gd = 0
	s.ctx, s.err = nil, nil
	s.rec, s.obsStart = nil, time.Time{}
	s.activeCount = m
	for _, f := range q.Existing {
		sc.markPart(f, pfExist)
	}
	for _, f := range q.Candidates {
		if !sc.partHas(f, pfCand) {
			sc.markPart(f, pfCand)
			sc.partCand[f] = int32(len(s.cands))
			s.cands = append(s.cands, f)
		}
	}
	inf := math.Inf(1)
	for i := range q.Clients {
		s.active[i] = true
		s.bestExist[i] = inf
	}
	return s
}

// bindContext arms the cancellation checkpoints; see eaState.bindContext.
func (s *extState) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
}

// bindRecorder attaches a per-query span recorder; see eaState.bindRecorder.
func (s *extState) bindRecorder(rec obs.Recorder) {
	if rec != nil {
		s.rec = rec
		s.obsStart = time.Now()
	}
}

// emit sends one span event to the bound recorder; hot callers guard with
// s.rec != nil.
func (s *extState) emit(stage obs.Stage, gd float64) {
	if s.rec == nil {
		return
	}
	s.rec.Event(obs.Span{
		Stage:         stage,
		Elapsed:       time.Since(s.obsStart),
		DistanceCalcs: s.res.DistanceCalcs,
		Retrievals:    s.res.Retrievals,
		QueuePops:     s.res.QueuePops,
		PrunedClients: s.res.PrunedClients,
		Gd:            gd,
	})
}

// cancelled polls the bound context, latching the first error into s.err.
func (s *extState) cancelled() bool {
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

func (s *extState) explorer(p indoor.PartitionID) *vip.Explorer {
	return s.cache.get(s.t, p)
}

func (s *extState) markVisited(p indoor.PartitionID, n vip.NodeID) bool {
	return s.sc.visit(p, n)
}

func (s *extState) retrieve(ci int32, f indoor.PartitionID, d float64) {
	s.res.Retrievals++
	fl := s.sc.partFlags(f)
	if fl&pfExist != 0 && d < s.bestExist[ci] {
		s.bestExist[ci] = d
		s.pruneHeap.Push(ci, d)
	}
	if fl&pfCand != 0 {
		s.obj.retrieved(int(ci), int(s.sc.partCand[f]), d, s.gd)
	}
}

// prune mirrors eaState.prune, including the lazy-heap staleness rule: a
// client is pruned only against its live key (equal to its current
// bestExist); stale larger keys from before a re-push are skipped.
func (s *extState) prune(bound float64) {
	for !s.pruneHeap.Empty() {
		if _, d := s.pruneHeap.Peek(); d > bound {
			return
		}
		ci, d := s.pruneHeap.Pop()
		if !s.active[ci] || d != s.bestExist[ci] {
			continue // stale key: re-pushed smaller, or already pruned
		}
		s.active[ci] = false
		s.activeCount--
		s.res.PrunedClients++
		if s.rec != nil {
			s.emit(obs.StagePrune, s.gd)
		}
		s.obj.clientPruned(int(ci), s.bestExist[ci])
		s.sc.removeClient(s.q.Clients[ci].Part, ci)
	}
}

// extState implements vip.Frontier; Tree.Expand drives the bottom-up
// expansion rule through these hooks (see eaState's implementation).

// Visit marks a node visited for the current source partition.
func (s *extState) Visit(n vip.NodeID) bool { return s.markVisited(s.curPart, n) }

// PushNode enqueues a tree node for the current source partition.
func (s *extState) PushNode(n vip.NodeID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, node: n}, prio)
}

// Wanted reports whether a facility partition participates in the query.
func (s *extState) Wanted(f indoor.PartitionID) bool {
	return s.sc.partFlags(f)&(pfExist|pfCand) != 0
}

// PushFacility enqueues a facility partition for the current source.
func (s *extState) PushFacility(f indoor.PartitionID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, fac: f, isFac: true}, prio)
}

func (s *extState) process(entry eaEntry) {
	p := entry.part
	e := s.explorer(p)
	if entry.isFac {
		for _, ci := range s.sc.clientsOf[p] {
			d := e.PointToPartition(s.offsets[ci], entry.fac)
			s.res.DistanceCalcs++
			s.retrieve(ci, entry.fac, d)
		}
		return
	}
	s.curPart = p
	s.t.Expand(e, p, entry.node, s)
}

// retainedBytes estimates the traversal's simultaneously-held state.
func (s *extState) retainedBytes() int {
	total := s.cache.retainedBytes()
	total += s.sc.visitCount * 4
	return total + s.queue.Len()*32 + len(s.bestExist)*8
}

// run drives the traversal until the objective declares an answer. It
// returns the winning candidate index, or an error when the bound context
// was cancelled mid-traversal.
func (s *extState) run() (int, error) {
	q := s.q
	if s.cancelled() {
		return -1, s.err
	}
	sc := s.sc
	// Preamble: clients inside facility partitions retrieve them at
	// distance zero — routed through retrieve so the Retrievals counter
	// tallies the same events as the MinMax solver's preamble.
	for ci, c := range q.Clients {
		if sc.partFlags(c.Part)&(pfExist|pfCand) != 0 {
			s.retrieve(int32(ci), c.Part, 0)
		}
	}
	s.prune(0)
	for ci, c := range q.Clients {
		if s.active[ci] {
			sc.addClient(c.Part, int32(ci))
			s.offsets[ci] = s.explorer(c.Part).PointOffsetsAppend(s.offsets[ci][:0], c.Loc)
		}
	}
	if s.rec != nil {
		s.emit(obs.StageLocate, 0)
	}
	s.obj.boundAdvanced(0)
	if s.rec != nil {
		s.emit(obs.StageAnswerCheck, 0)
	}
	if k, ok := s.obj.answer(0); ok {
		return k, nil
	}
	// Seed in client order via the touched-partition list (deterministic;
	// see the eaState seeding comment).
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
			return -1, s.err
		}
		entry, prio := s.queue.Pop()
		s.res.QueuePops++
		s.gd = prio
		if len(sc.clientsOf[entry.part]) > 0 {
			s.process(entry)
		}
		for !s.queue.Empty() {
			if _, np := s.queue.Peek(); np > prio {
				break
			}
			if s.cancelled() {
				return -1, s.err
			}
			e2, _ := s.queue.Pop()
			s.res.QueuePops++
			if len(sc.clientsOf[e2.part]) > 0 {
				s.process(e2)
			}
		}
		if s.rec != nil {
			s.emit(obs.StageQueuePop, s.gd)
		}
		s.prune(s.gd)
		s.obj.boundAdvanced(s.gd)
		if s.rec != nil {
			s.emit(obs.StageAnswerCheck, s.gd)
		}
		if k, ok := s.obj.answer(s.gd); ok {
			return k, nil
		}
	}
	// Everything retrieved: settle all remaining clients and decide.
	s.gd = math.Inf(1)
	s.prune(s.gd)
	s.obj.boundAdvanced(s.gd)
	if s.rec != nil {
		s.emit(obs.StageAnswerCheck, s.gd)
	}
	k, _ := s.obj.answer(s.gd)
	return k, nil
}
