package core

import (
	"context"
	"fmt"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Objective selects the scoring strategy Exec runs over the shared query
// pipeline. The zero value is MinMax, the paper's headline objective.
type Objective uint8

const (
	// ObjMinMax minimizes the maximum client-to-nearest-facility distance
	// with the paper's efficient approach (Algorithms 2 and 3; see
	// execMinMax). A cancellable context is checked at every queue dequeue
	// and every d_low step.
	ObjMinMax Objective = iota
	// ObjBaseline answers MinMax with the modified MinMax algorithm
	// (Algorithm 1; see execBaseline), kept for comparison. A cancellable
	// context is checked once per client in the NN-search pass, once per
	// candidate in the initial filter, once per client in the refinement
	// loop, and once per surviving candidate in Find_Ans.
	ObjBaseline
	// ObjMinDist minimizes the total client-to-nearest-facility distance
	// (Section 7 extension; see execMinDist). Checkpoints as ObjMinMax.
	ObjMinDist
	// ObjMaxSum maximizes the number of captured clients (Section 7
	// extension; see execMaxSum). Checkpoints as ObjMinMax.
	ObjMaxSum
	// ObjTopK ranks the Options.K best candidates by MinMax objective (see
	// execTopK). Checkpoints as ObjMinMax.
	ObjTopK
	// ObjMulti greedily selects Options.K candidates for K new facilities
	// (see execMulti). The context reaches every round's MinMax run, so a
	// cancel takes effect at that run's checkpoints.
	ObjMulti

	numObjectives // sentinel: count of dispatch-table entries
)

// String returns the objective's wire name (the same spelling
// internal/batch uses).
func (o Objective) String() string {
	if o < numObjectives {
		return objectives[o].name
	}
	return fmt.Sprintf("objective(%d)", uint8(o))
}

// Options configure one Exec call. The zero value runs an unobserved,
// non-pooled MinMax query.
type Options struct {
	// Objective picks the dispatch-table entry.
	Objective Objective
	// K is the result count for ObjTopK and the facility count for
	// ObjMulti; ignored by the single-answer objectives.
	K int
	// Recorder, when non-nil, receives one obs.Span per instrumented stage.
	// Nil keeps the run on the exact unobserved code path (each hook is a
	// single nil comparison).
	Recorder obs.Recorder
	// Scratch, when non-nil, backs the run with pooled working memory; see
	// Scratch for the reuse and ownership rules. Nil gives the run a
	// private Scratch, so fresh and pooled runs share one code path.
	Scratch *Scratch

	// explorers, when non-nil, replaces the run's explorer cache with a
	// caller-owned persistent one. Only Session sets it: cached distance
	// vectors then survive across queries (and are charged to the Stats
	// memory metric), which is Session's documented trade.
	explorers *explorerCache
}

// ExecResult carries the payload of one Exec call; the field selected by
// Options.Objective is populated, the rest stay zero. A plain value owned
// by the caller.
type ExecResult struct {
	// MinMax holds the ObjMinMax / ObjBaseline answer.
	MinMax Result
	// Ext holds the ObjMinDist / ObjMaxSum answer.
	Ext ExtResult
	// TopK holds the ObjTopK ranking. Always freshly allocated, never
	// aliased into a Scratch.
	TopK []RankedCandidate
	// Multi holds the ObjMulti selection.
	Multi MultiResult
}

// execFn runs one objective over a validated, non-empty query.
type execFn func(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error)

// objectiveEntry is one dispatch-table row: the objective's wire name, its
// canonical empty result (the uniform not-found semantics for impossible
// queries), and its runner. Adding an objective means adding a row — the
// pipeline (validate, locate, traverse, prune) is shared.
type objectiveEntry struct {
	name  string
	empty func() ExecResult
	run   execFn
}

var objectives = [numObjectives]objectiveEntry{
	ObjMinMax:   {name: "minmax", empty: emptyMinMax, run: execMinMax},
	ObjBaseline: {name: "baseline", empty: emptyMinMax, run: execBaseline},
	ObjMinDist:  {name: "mindist", empty: emptyExt, run: execMinDist},
	ObjMaxSum:   {name: "maxsum", empty: emptyExt, run: execMaxSum},
	ObjTopK:     {name: "topk", empty: emptyTopK, run: execTopK},
	ObjMulti:    {name: "multi", empty: emptyMulti, run: execMulti},
}

// The canonical empty results: every objective answers an impossible query
// (no clients, no candidates, or a non-positive K where K matters) with its
// typed "no improving candidate" value, before any state is built.
func emptyMinMax() ExecResult { return ExecResult{MinMax: noResult()} }
func emptyExt() ExecResult    { return ExecResult{Ext: noExtResult()} }
func emptyTopK() ExecResult   { return ExecResult{} }
func emptyMulti() ExecResult  { return ExecResult{Multi: noMultiResult()} }

// Exec answers one IFLS query through the unified engine pipeline:
// dispatch → locate/group clients → bottom-up VIP-tree traversal with Gd
// pruning → objective-specific scoring. It and Session.Exec are the
// package's only query entry points; the d2d brute-force oracle (SolveBrute
// and friends) is the independent reference they are tested against.
//
// Exec does not validate q: callers run Query.Validate first (package ifls
// and internal/batch do), since a malformed query may panic. A cancellable
// ctx stops the run at the objective's next checkpoint (see the Obj*
// constants) with a faults.Cancelled error wrapping ctx.Err(); a
// non-cancellable one (Done() == nil) skips every checkpoint. With a nil
// Recorder the run is on the exact unobserved code path. On any error the
// payload is the zero ExecResult; partial work is discarded.
//
// Exec is safe for concurrent calls over one read-only tree as long as each
// concurrent call has its own Scratch (or none).
func Exec(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	if o.Objective >= numObjectives {
		return ExecResult{}, fmt.Errorf("%w: objective %d", faults.ErrUnknownObjective, uint8(o.Objective))
	}
	e := &objectives[o.Objective]
	if emptyInput(q, o) {
		return e.empty(), nil
	}
	if o.Scratch == nil && o.Objective != ObjBaseline { // the baseline never touches a Scratch
		o.Scratch = NewScratch()
	}
	return e.run(ctx, t, q, o)
}

// emptyInput reports whether the query cannot name an answer, uniformly
// across objectives: no clients, no candidates, or (for the K-parameterized
// objectives) a non-positive K.
func emptyInput(q *Query, o Options) bool {
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return true
	}
	if o.Objective == ObjTopK || o.Objective == ObjMulti {
		return o.K <= 0
	}
	return false
}

// execMinMax runs the paper's efficient approach (Algorithms 2 and 3).
// Existing facilities and candidate locations are indexed together on one
// VIP-tree and the nearest facilities of all clients are found
// incrementally with a single bottom-up best-first traversal:
//
//   - clients are grouped by partition — the queue holds (partition, entity)
//     pairs keyed by iMinD, and one Explorer per partition serves every
//     client in it (per-client values differ only in door offsets, which
//     realizes the paper's single-door fast path for free);
//   - Gd, the priority of the last dequeued entry, is the global bound: every
//     facility within Gd of a client partition has been retrieved;
//   - clients whose nearest existing facility is within the bound are pruned
//     (Lemma 5.1) — no further candidate retrievals or distance computations
//     are spent on them;
//   - once every remaining client has at least one retrieved facility
//     (isFirst), the verified horizon d_low advances through the retrieved
//     distances in sorted steps (increaseDist), pruning clients and checking
//     after each step whether some candidate now covers every remaining
//     client within d_low. The first covering candidate is the answer and
//     d_low is the exact objective value.
//
// All solver state is flat and ID-indexed: facility roles, candidate
// indexes, per-partition client lists, and visited-node marks live in dense
// epoch-stamped columns on the run's Scratch, and the stepping loops run on
// monotone bucket queues.
func execMinMax(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	s := newEAState(t, q, o.Scratch)
	if o.explorers != nil {
		s.cache = o.explorers
	}
	s.bindContext(ctx)
	s.bindRecorder(o.Recorder)
	r, err := s.run()
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{MinMax: r}, nil
}

// execBaseline runs the modified MinMax algorithm (Algorithm 1 of the
// paper): the road-network MinMax algorithm of Chen et al. adapted to indoor
// space. Fe and Fn are indexed as separate facility sets over the VIP-tree;
// each client's nearest existing facility is found with an individual
// top-down NN search, clients are processed in descending order of that
// distance, and the candidate answer set is refined with the paper's two
// pruning rules until it collapses or all clients have been considered.
//
// Every client is processed separately — one NN search per client and one
// standalone point-to-partition distance computation per examined (client,
// candidate) pair. That per-client cost is exactly the limitation the
// efficient approach removes. The baseline shares the engine's empty-result
// semantics but not its traversal or Scratch: its state is a handful of
// call-local slices, which is exactly the memory frugality the paper
// measures it for.
func execBaseline(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	r, err := solveBaseline(ctx, t, q, o.Recorder)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{MinMax: r}, nil
}

// execMinDist answers the MinDist variant (Section 7): the candidate
// minimizing the total distance of all clients to their nearest facility in
// Fe ∪ {candidate}. The traversal, grouping, and Lemma 5.1 client pruning
// are exactly those of execMinMax; only the candidate bookkeeping changes. A
// client's contribution settles exactly when it becomes determined:
//
//   - a pruned client's nearest existing distance is final (everything
//     nearer has been retrieved), so its contribution to candidate n is
//     min(dNN, d(c,n)) when n was retrieved for it and dNN otherwise;
//   - an unpruned client (dNN > Gd) contributes exactly d(c,n) for every
//     candidate retrieved within Gd;
//   - all other contributions are lower-bounded by Gd.
//
// The search stops when some fully-settled candidate's total is no larger
// than every other candidate's lower bound.
func execMinDist(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	res := ExtResult{}
	obj := newMinDistObj(len(q.Clients), o.Scratch)
	s := newExtState(t, q, obj, &res.Stats, o.Scratch)
	if o.explorers != nil {
		s.cache = o.explorers
	}
	s.bindContext(ctx)
	s.bindRecorder(o.Recorder)
	obj.init(s.cands)
	k, err := s.run()
	if err != nil {
		return ExecResult{}, err
	}
	res.Answer = s.cands[k]
	res.Objective = obj.sumExact[k]
	res.Improves = obj.capturedAny[k]
	res.Stats.RetainedBytes = s.retainedBytes() + obj.tab.retainedBytes()
	return ExecResult{Ext: res}, nil
}

// execMaxSum answers the MaxSum variant (Section 7): the candidate that
// captures the most clients, where a candidate captures a client when it
// would become the client's nearest facility (strictly closer than every
// existing facility). The shared traversal decides each (client, candidate)
// pair exactly:
//
//   - a candidate retrieved within Gd for an unpruned client captures it
//     (the client's nearest existing facility is beyond Gd);
//   - a pruned client's nearest existing distance is final, so retrieved
//     pairs compare directly and unretrieved candidates (farther than Gd)
//     cannot capture it;
//
// and stops when some fully-decided candidate's captured count reaches every
// other candidate's upper bound (decided captures plus undecided pairs).
func execMaxSum(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	res := ExtResult{}
	obj := newMaxSumObj(len(q.Clients), o.Scratch)
	s := newExtState(t, q, obj, &res.Stats, o.Scratch)
	if o.explorers != nil {
		s.cache = o.explorers
	}
	s.bindContext(ctx)
	s.bindRecorder(o.Recorder)
	obj.init(s.cands)
	k, err := s.run()
	if err != nil {
		return ExecResult{}, err
	}
	res.Answer = s.cands[k]
	res.Objective = float64(obj.captured[k])
	res.Improves = obj.captured[k] > 0
	res.Stats.RetainedBytes = s.retainedBytes() + obj.tab.retainedBytes()
	return ExecResult{Ext: res}, nil
}

// execTopK returns the o.K candidates with the smallest MinMax objectives in
// ascending order, following the k-optimal-location formulations of the
// location-selection literature the paper surveys. It reuses execMinMax's
// traversal: a candidate's exact objective equals the first d_low horizon at
// which it covers every remaining client, so continuing the incremental
// search until K candidates have covered yields the top K with their exact
// objectives, in order, still in a single pass. Candidates that do not
// improve on the status quo are not returned, so the ranking may hold fewer
// than K entries.
func execTopK(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	s := newEAState(t, q, o.Scratch)
	if o.explorers != nil {
		s.cache = o.explorers
	}
	s.bindContext(ctx)
	s.bindRecorder(o.Recorder)
	s.topK = o.K
	if _, err := s.run(); err != nil {
		return ExecResult{}, err
	}
	return ExecResult{TopK: finishTopK(s, o.K)}, nil
}

// execMulti selects o.K candidate locations for K new facilities greedily:
// each round is one MinMax run (sharing this call's Scratch, Recorder, and
// explorer cache — a Scratch reset makes sequential rounds safe), the winner
// joins the existing set, and selection stops early, with fewer than K
// answers, when no remaining candidate improves the objective. Joint
// k-facility MinMax selection generalizes k-center and is NP-hard, so a
// greedy chain is the standard practical approach (the k-location variants
// the paper surveys do the same); SolveBruteMulti provides the exact joint
// optimum for small instances and tests.
func execMulti(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	res := MultiResult{}
	existing := append([]indoor.PartitionID(nil), q.Existing...)
	remaining := append([]indoor.PartitionID(nil), q.Candidates...)
	round := Options{Objective: ObjMinMax, Recorder: o.Recorder, Scratch: o.Scratch, explorers: o.explorers}
	for i := 0; i < o.K && len(remaining) > 0; i++ {
		sub := &Query{Existing: existing, Candidates: remaining, Clients: q.Clients}
		// Call the MinMax runner directly (not Exec) — the sub-query is
		// never empty inside the loop, and a direct call keeps the dispatch
		// table free of an initialization cycle.
		er, err := execMinMax(ctx, t, sub, round)
		if err != nil {
			return ExecResult{}, err
		}
		r := er.MinMax
		res.Stats.DistanceCalcs += r.Stats.DistanceCalcs
		res.Stats.Retrievals += r.Stats.Retrievals
		res.Stats.QueuePops += r.Stats.QueuePops
		res.Stats.PrunedClients += r.Stats.PrunedClients
		if !r.Found {
			break
		}
		res.Answers = append(res.Answers, r.Answer)
		res.PerStep = append(res.PerStep, r.Objective)
		existing = append(existing, r.Answer)
		kept := remaining[:0]
		for _, c := range remaining {
			if c != r.Answer {
				kept = append(kept, c)
			}
		}
		remaining = kept
	}
	if len(res.PerStep) > 0 {
		res.Objective = res.PerStep[len(res.PerStep)-1]
	} else {
		res.Objective = noMultiResult().Objective
	}
	return ExecResult{Multi: res}, nil
}
