package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ifls "github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/bench"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/server"
	"github.com/indoorspatial/ifls/internal/vip"
)

// The serve workload: an operator's query traffic against resident
// indexes of all four venues, sent in-process to the iflsd handler.
const (
	// serveRate is the fixed open-loop arrival rate, about a third of the
	// closed-loop capacity measured when the benchmark was defined. It is
	// a constant of the benchmark, never recomputed per commit.
	serveRate = 8.0
	// serveOpenShare is the share of the window spent in the open loop.
	// The closed loop then sends the same requests once at full speed,
	// which takes about a third of the open loop's time.
	serveOpenShare = 0.75
	// serveRounds splits the run into rounds of an open-loop phase and a
	// closed-loop phase.
	serveRounds = 3
	// serveQueryTimeout is the server's query timeout, the stated latency
	// limit: a slower query fails with 504.
	serveQueryTimeout = 10 * time.Second
	// lateBoundMS is the largest p99 lateness of the open-loop generator a
	// valid run may show.
	lateBoundMS = 100.0
	burstSize   = 3
	topK        = 5
	sigma       = bench.SigmaDefault
)

// share is one entry of a traffic mix.
type share struct {
	name  string
	share int // percent
}

// serveVenues is the venue mix; each venue's client counts span
// [minC, maxC].
var serveVenues = []struct {
	share
	minC, maxC int
}{
	{share{"CPH", 45}, 100, 500},
	{share{"MC", 45}, 100, 500},
	{share{"CH", 7}, 100, 100},
	{share{"MZB", 3}, 100, 100},
}

var serveObjectives = []share{{"minmax", 70}, {"mindist", 10}, {"maxsum", 10}, {"topk", 10}}

// burstShares makes 10% of arrivals bursts of burstSize byte-identical
// bodies due at the same instant.
var burstShares = []share{{"single", 90}, {"burst", 10}}

// serveChecked is how many distinct requests per venue, the first ones in
// schedule order, are checked against a direct Session solve.
var serveChecked = map[string]int{"CPH": 4, "MC": 4, "CH": 2, "MZB": 1}

// interleave returns n picks from shares (which sum to 100) by smooth
// weighted round robin: every 100 picks hold each share exactly, and each
// share's picks are spread evenly, so neither the mix nor its spacing
// changes with the seed; the seed changes only what each query contains.
func interleave(shares []share, n int) []int {
	cur := make([]int, len(shares))
	out := make([]int, n)
	for k := range out {
		best := 0
		for i, s := range shares {
			cur[i] += s.share
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= 100
		out[k] = best
	}
	return out
}

// strata deals stratum indices 0..9 in a seeded order, reshuffling every
// ten deals, so each venue's client counts cover their range evenly.
type strata struct {
	rng   *rand.Rand
	cards []int
}

func (s *strata) next() int {
	if len(s.cards) == 0 {
		s.cards = s.rng.Perm(10)
	}
	c := s.cards[0]
	s.cards = s.cards[1:]
	return c
}

// request is one distinct query body.
type request struct {
	venue     string
	objective string
	k         int
	query     *ifls.Query
	body      []byte
	checked   bool
	want      answer
}

// answer is the comparable part of a query outcome.
type answer struct {
	found   bool
	answer  int32
	value   float64 // NaN when absent
	ranking []server.RankedJSON
}

func (a answer) equal(b answer) bool {
	if a.found != b.found || len(a.ranking) != len(b.ranking) {
		return false
	}
	for i := range a.ranking {
		if a.ranking[i] != b.ranking[i] {
			return false
		}
	}
	if !a.found || a.ranking != nil {
		return true
	}
	return a.answer == b.answer && (a.value == b.value || math.IsNaN(a.value) && math.IsNaN(b.value))
}

func fromResponse(r server.QueryResponse) answer {
	a := answer{found: r.Found, value: math.NaN(), ranking: r.Ranking}
	if r.Answer != nil {
		a.answer = *r.Answer
	}
	if r.Value != nil {
		a.value = *r.Value
	}
	return a
}

func fromResult(found bool, ans ifls.PartitionID, value float64) answer {
	a := answer{found: found, value: math.NaN()}
	if found {
		a.answer = int32(ans)
		a.value = value
	}
	return a
}

// arrival is one open-loop send: copies identical bodies due at once.
type arrival struct {
	due    time.Duration
	req    *request
	copies int
}

// outcome is one handler call.
type outcome struct {
	req        *request
	status     int
	resp       server.QueryResponse
	decodeErr  error
	due        time.Time
	start, end time.Time
	// cpu is the process CPU time of the call, measured only where calls
	// run one at a time.
	cpu time.Duration
}

func (o *outcome) ok() bool { return o.status == http.StatusOK && o.decodeErr == nil }

// latency is timed from when the request was due; a failed request counts
// as reaching the latency limit.
func (o *outcome) latency() float64 {
	if !o.ok() {
		return ms(serveQueryTimeout)
	}
	return ms(o.end.Sub(o.due))
}

type serveEnv struct {
	venues  map[string]*ifls.Venue
	indexes map[string]*ifls.Index
}

func serveSetup() (*serveEnv, error) {
	env := &serveEnv{venues: map[string]*ifls.Venue{}, indexes: map[string]*ifls.Index{}}
	for _, name := range allVenues {
		v, err := ifls.SampleVenue(name)
		if err != nil {
			return nil, err
		}
		ix, err := ifls.NewIndex(v)
		if err != nil {
			return nil, fmt.Errorf("indexing %s: %w", name, err)
		}
		env.venues[name], env.indexes[name] = v, ix
	}
	return env, nil
}

// serveSchedule draws the open-loop arrivals for one window.
func serveSchedule(env *serveEnv, seed int64, n int) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	venueShares := make([]share, len(serveVenues))
	for i, v := range serveVenues {
		venueShares[i] = v.share
	}
	venues := interleave(venueShares, n)
	objectives := interleave(serveObjectives, n)
	bursts := interleave(burstShares, n)
	gens := map[string]*ifls.WorkloadGenerator{}
	counts := map[string]*strata{}
	seen := map[string]int{}
	out := make([]arrival, n)
	for i := range out {
		mix := serveVenues[venues[i]]
		name := mix.name
		g := gens[name]
		if g == nil {
			g = ifls.NewWorkloadGenerator(env.venues[name])
			gens[name] = g
			counts[name] = &strata{rng: rand.New(rand.NewSource(rng.Int63()))}
		}
		p := bench.Table2[name]
		nc := mix.minC + (mix.maxC-mix.minC)*counts[name].next()/9
		dist := ifls.Uniform
		if seen[name]%2 == 1 {
			dist = ifls.Normal
		}
		q, err := g.Query(p.FeDefault, p.FnDefault, nc, dist, sigma, rng)
		if err != nil {
			return nil, err
		}
		r := &request{venue: name, objective: serveObjectives[objectives[i]].name, query: q}
		if r.objective == "topk" {
			r.k = topK
		}
		r.checked = seen[name] < serveChecked[name]
		seen[name]++
		if r.body, err = json.Marshal(wireRequest(name, r.objective, r.k, q)); err != nil {
			return nil, err
		}
		copies := 1
		if burstShares[bursts[i]].name == "burst" {
			copies = burstSize
		}
		out[i] = arrival{due: time.Duration(float64(i) / serveRate * float64(time.Second)), req: r, copies: copies}
	}
	return out, nil
}

func wireRequest(venue, objective string, k int, q *ifls.Query) server.QueryRequest {
	req := server.QueryRequest{Venue: venue, Objective: objective, K: k}
	for _, f := range q.Existing {
		req.Existing = append(req.Existing, int32(f))
	}
	for _, f := range q.Candidates {
		req.Candidates = append(req.Candidates, int32(f))
	}
	for _, c := range q.Clients {
		req.Clients = append(req.Clients, server.ClientJSON{
			ID: c.ID, X: c.Loc.X, Y: c.Loc.Y, Level: c.Loc.Level, Partition: int32(c.Part),
		})
	}
	return req
}

// call sends one body through the handler, recording a server span.
func call(h http.Handler, o *outcome, tr *tracer, parent, rid int64) {
	hr := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(o.req.body))
	rec := httptest.NewRecorder()
	o.start = time.Now()
	h.ServeHTTP(rec, hr)
	o.end = time.Now()
	tr.record("server.handle", parent, rid, o.start, o.end)
	o.status = rec.Code
	if o.status == http.StatusOK {
		o.decodeErr = json.Unmarshal(rec.Body.Bytes(), &o.resp)
	}
}

// openLoop sends the arrivals on their schedule, one goroutine per body,
// and returns every outcome plus how late the generator ran per arrival.
func openLoop(h http.Handler, arrivals []arrival, tr *tracer) ([]outcome, []float64) {
	n := 0
	for _, a := range arrivals {
		n += a.copies
	}
	outs := make([]outcome, n)
	late := make([]float64, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	k := 0
	for i, a := range arrivals {
		due := start.Add(a.due - arrivals[0].due)
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		for c := 0; c < a.copies; c++ {
			o := &outs[k]
			k++
			o.req, o.due = a.req, due
			wg.Add(1)
			go func() {
				defer wg.Done()
				rid := tr.request()
				root := tr.open("gen.request", 0, rid, o.due)
				call(h, o, tr, root, rid)
				tr.close(root, o.end)
			}()
		}
	}
	wg.Wait()
	return outs, late
}

// closedLoop sends every body of the arrivals once, in order, from callers
// goroutines that each send their next body as soon as the previous one
// completes.
func closedLoop(h http.Handler, arrivals []arrival, callers int) []outcome {
	var reqs []*request
	for _, a := range arrivals {
		for c := 0; c < a.copies; c++ {
			reqs = append(reqs, a.req)
		}
	}
	var next atomic.Int64
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				o := &outs[i]
				o.req, o.due = reqs[i], time.Now()
				call(h, o, nil, 0, 0)
			}
		}()
	}
	wg.Wait()
	return outs
}

// splitHeavy returns the light (CPH, MC) and the heavy (CH, MZB) arrivals.
func splitHeavy(arrivals []arrival) [2][]arrival {
	var parts [2][]arrival
	for _, a := range arrivals {
		class := 0
		if a.req.venue == "CH" || a.req.venue == "MZB" {
			class = 1
		}
		parts[class] = append(parts[class], a)
	}
	return parts
}

// capacity is the closed loop's completions per second, computed as
// callers / mean latency (Little's law for a closed loop without think
// time), so the idle tail of whichever caller finishes first does not
// count against the system.
func capacity(outs []outcome, callers int) float64 {
	var busy time.Duration
	for i := range outs {
		busy += outs[i].end.Sub(outs[i].start)
	}
	return frac(float64(len(outs)*callers), busy.Seconds())
}

// newServeServer registers the resident indexes with a server configured
// as iflsd runs it and returns its handler.
func newServeServer(env *serveEnv) http.Handler {
	srv := ifls.NewServer(ifls.ServerOptions{Metrics: ifls.NewMetrics(), QueryTimeout: serveQueryTimeout})
	for _, name := range allVenues {
		// Names are distinct, so AddVenue cannot fail.
		_ = srv.AddVenue(name, env.indexes[name])
	}
	return srv.Handler()
}

func runServe(cfg config) (*result, error) {
	env, setup, err := timedSetup(serveSetup)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	trees, err := venueTrees(tr, res, env.venues, allVenues)
	if err != nil {
		return nil, err
	}
	openWindow := time.Duration(float64(cfg.window) * serveOpenShare)
	arrivals, err := serveSchedule(env, cfg.seed, int(math.Round(openWindow.Seconds()*serveRate)))
	if err != nil {
		return nil, err
	}
	h := newServeServer(env)

	// Rounds of an open-loop phase followed by a closed-loop phase over
	// the same requests, so both phases sample the whole run. The closed
	// loop sends a round's light (CPH, MC) requests, then its heavy (CH,
	// MZB) ones, so the process CPU time of each class can be told apart.
	callers := runtime.NumCPU()
	var outs, closed []outcome
	var late []float64
	var classCPU [2]time.Duration
	var classN [2]int
	for r := 0; r < serveRounds; r++ {
		chunk := arrivals[r*len(arrivals)/serveRounds : (r+1)*len(arrivals)/serveRounds]
		runtime.GC()
		o, l := openLoop(h, chunk, nil)
		outs, late = append(outs, o...), append(late, l...)
		if cfg.trace {
			continue
		}
		for class, part := range splitHeavy(chunk) {
			runtime.GC()
			cpu0 := cpuTime()
			c := closedLoop(h, part, callers)
			classCPU[class] += cpuTime() - cpu0
			classN[class] += len(c)
			closed = append(closed, c...)
		}
	}
	lightCPU := frac(ms(classCPU[0]), float64(classN[0]))
	heavyCPU := frac(ms(classCPU[1]), float64(classN[1]))

	sum := summarizeOpen(outs)
	lateP99 := percentile(late, 99)
	res.name("query_p50_ms", sum.p50, "ms", fmt.Sprintf("all requests, open loop at %.1f arrivals/s, n=%d", serveRate, sum.n))
	res.name("query_tail_ms", sum.tail, "ms", fmt.Sprintf("p%d, n=%d", sum.pct, sum.n))
	res.name("mc_query_p50_ms", sum.mcP50, "ms", fmt.Sprintf("MC requests, n=%d", sum.mcN))
	res.name("heavy_query_p50_ms", sum.heavyP50, "ms", fmt.Sprintf("CH and MZB requests, n=%d", sum.heavyN))
	res.name("gen.late_ms_p99", lateP99, "ms", fmt.Sprintf("n=%d arrivals", len(late)))
	if !cfg.trace {
		res.name("capacity_qps", capacity(closed, callers), "1/s", fmt.Sprintf("closed loop, %d callers, n=%d", callers, len(closed)))
		res.name("light_cpu_ms", lightCPU, "ms", fmt.Sprintf("process CPU time per closed-loop CPH or MC request, n=%d", classN[0]))
		res.name("heavy_cpu_ms", heavyCPU, "ms", fmt.Sprintf("process CPU time per closed-loop CH or MZB request, n=%d", classN[1]))
		res.nameSetup(setup)
	}
	res.sample("arrivals", len(arrivals))
	res.sample("open_requests", sum.n)
	res.sample("mc_requests", sum.mcN)
	res.sample("heavy_requests", sum.heavyN)
	res.sample("closed_requests", len(closed))
	if lateP99 > lateBoundMS {
		res.invalid = fmt.Sprintf("open-loop generator p99 lateness %.1f ms exceeds %.0f ms", lateP99, lateBoundMS)
	}
	res.metrics["op_cpu_ms"] = lightCPU
	res.metrics["slow_op_cpu_ms"] = heavyCPU

	all := append(outs, closed...)
	if cfg.trace {
		traced, err := serveTraced(cfg, env, tr, trees, h, arrivals, sum.mcP50, lateP99, res)
		if err != nil {
			return nil, err
		}
		all = append(all, traced...)
	}

	// Answer checks, outside the timed window.
	checks, err := serveReferences(cfg, env, arrivals, res)
	if err != nil {
		return nil, err
	}
	res.attempted = len(all)
	for i := range all {
		o := &all[i]
		if !o.ok() || !sane(o) || (o.req.checked && !o.req.want.equal(fromResponse(o.resp))) {
			res.failed++
		}
	}
	res.sample("checked_requests", checks)
	if !cfg.trace {
		// The benchmark's own records are garbage by now; what stays live
		// is the serving system.
		heap := heapMB()
		runtime.KeepAlive(env)
		runtime.KeepAlive(h)
		res.name("heap_mb", heap, "MB", "live heap of the server and its indexes after the run, after a GC")
		res.metrics["heap_mb"] = heap
	}
	return res, nil
}

type openSummary struct {
	p50, tail, mcP50, heavyP50 float64
	pct, n, mcN, heavyN        int
}

// summarizeOpen reduces the open-loop latencies: over all requests, over
// MC requests, and over the CH and MZB requests whose VIP-tree traversal
// dominates. The all-request median falls between the CPH and MC latency
// modes, where a few milliseconds of jitter move it far; the MC median is
// the steady statistic of the light traffic.
func summarizeOpen(outs []outcome) openSummary {
	var all, mc, heavy []float64
	for i := range outs {
		l := outs[i].latency()
		all = append(all, l)
		switch outs[i].req.venue {
		case "MC":
			mc = append(mc, l)
		case "CH", "MZB":
			heavy = append(heavy, l)
		}
	}
	s := openSummary{p50: median(all), mcP50: median(mc), heavyP50: median(heavy), n: len(all), mcN: len(mc), heavyN: len(heavy)}
	s.pct, s.tail = tail(all)
	return s
}

// sane checks what every 200 response must satisfy: an answer, when there
// is one, is one of the request's candidates.
func sane(o *outcome) bool {
	if o.resp.Answer == nil {
		return true
	}
	for _, c := range o.req.query.Candidates {
		if int32(c) == *o.resp.Answer {
			return true
		}
	}
	return false
}

// serveReferences solves every checked request with a fresh Session,
// stores the answer on the request, and adds the solves' work counts to
// the ledger. It returns the number of checked requests.
func serveReferences(cfg config, env *serveEnv, arrivals []arrival, res *result) (int, error) {
	var pops, calcs, retr, pruned int64
	n := 0
	ctx := context.Background()
	for _, a := range arrivals {
		r := a.req
		if !r.checked {
			continue
		}
		s := env.indexes[r.venue].NewSession()
		var st ifls.Stats
		switch r.objective {
		case "minmax":
			got, err := s.SolveContext(ctx, r.query)
			if err != nil {
				return 0, err
			}
			r.want, st = fromResult(got.Found, got.Answer, got.Objective), got.Stats
		case "mindist", "maxsum":
			solve := s.SolveMinDistContext
			if r.objective == "maxsum" {
				solve = s.SolveMaxSumContext
			}
			got, err := solve(ctx, r.query)
			if err != nil {
				return 0, err
			}
			r.want, st = fromResult(got.Improves, got.Answer, got.Objective), got.Stats
		case "topk":
			got := s.SolveTopK(r.query, r.k)
			r.want = answer{found: len(got) > 0, value: math.NaN(), ranking: make([]server.RankedJSON, len(got))}
			for i, rc := range got {
				r.want.ranking[i] = server.RankedJSON{Candidate: int32(rc.Candidate), Value: rc.Objective}
			}
		}
		if cfg.injectWrong && n == 0 {
			r.want.found, r.want.answer, r.want.ranking = true, -2, nil
		}
		pops += int64(st.QueuePops)
		calcs += int64(st.DistanceCalcs)
		retr += int64(st.Retrievals)
		pruned += int64(st.PrunedClients)
		n++
	}
	res.count("core.queue_pops", pops)
	res.count("core.distance_calcs", calcs)
	res.count("core.retrievals", retr)
	res.count("core.pruned_clients", pruned)
	return n, nil
}

// serveTraced repeats the open loop with spans recorded, then times each
// layer directly on the checked requests, and fills in the per-layer
// metrics. It returns the traced outcomes so they are checked too.
func serveTraced(cfg config, env *serveEnv, tr *tracer, trees map[string]*vip.Tree, h http.Handler, arrivals []arrival, untracedP50, lateP99 float64, res *result) ([]outcome, error) {
	m := res.layer
	m["gen.late_ms_p99"] = lateP99
	runtime.GC()
	outs, _ := openLoop(h, arrivals, tr)
	m["obs.trace_overhead_frac"] = frac(summarizeOpen(outs).mcP50-untracedP50, untracedP50)
	serverLayer(m, outs)

	// Per-query work counts, over the responses that carry them: top-k
	// responses have no stats.
	var n, pops, calcs, retr, pruned, clients, retained float64
	for i := range outs {
		o := &outs[i]
		if !o.ok() || o.req.objective == "topk" {
			continue
		}
		n++
		st := o.resp.Stats
		pops += float64(st.QueuePops)
		calcs += float64(st.DistanceCalcs)
		retr += float64(st.Retrievals)
		pruned += float64(st.PrunedClients)
		retained += float64(st.RetainedBytes)
		clients += float64(len(o.req.query.Clients))
	}
	m["core.queue_pops"] = frac(pops, n)
	m["core.distance_calcs"] = frac(calcs, n)
	m["core.retrievals"] = frac(retr, n)
	m["core.prune_rate"] = frac(pruned, clients)
	m["core.retained_kb"] = frac(retained, n) / 1024

	// Direct layer calls, each in its own root span.
	var locateNS, points float64
	for _, a := range arrivals {
		ix := env.indexes[a.req.venue]
		start := time.Now()
		for _, c := range a.req.query.Clients {
			ix.Locate(c.Loc)
		}
		end := time.Now()
		tr.record("locate.points", 0, tr.request(), start, end)
		locateNS += float64(end.Sub(start).Nanoseconds())
		points += float64(len(a.req.query.Clients))
	}
	m["locate.ns_per_point"] = frac(locateNS, points)

	var cl coreLayer
	for _, name := range allVenues {
		for _, a := range arrivals {
			if a.req.checked && a.req.venue == name {
				if err := cl.time(tr, env.indexes[name], trees[name], a.req); err != nil {
					return nil, err
				}
			}
		}
		m["core.exec_ms_p50."+name] = median(cl.solveMS)
		cl.solveMS = nil
	}
	m["core.locate_frac"] = frac(float64(cl.locate), float64(cl.exec))
	return outs, writeSpans(cfg, tr, res)
}

// serverLayer fills in the server metrics from handler outcomes: the time
// outside the response's elapsed_ms (decode, admission, encode), and the
// coalesced and shed shares.
func serverLayer(m map[string]float64, outs []outcome) {
	var outside []float64
	var n200, coalesced, shed float64
	for i := range outs {
		o := &outs[i]
		if o.status == http.StatusTooManyRequests {
			shed++
		}
		if !o.ok() {
			continue
		}
		n200++
		if o.resp.Coalesced {
			coalesced++
		}
		outside = append(outside, ms(o.end.Sub(o.start))-o.resp.ElapsedMS)
	}
	m["server.outside_ms_p50"] = median(outside)
	m["server.coalesced_frac"] = frac(coalesced, n200)
	m["server.shed_frac"] = frac(shed, float64(len(outs)))
}

// venueTrees builds the named venues' VIP-trees as Index does, outside the
// timed windows, timing each build and recording its shape in the ledger
// and the per-layer metrics. Only a traced run (tr != nil) solves on the
// trees, so only it gets them back.
func venueTrees(tr *tracer, res *result, venues map[string]*ifls.Venue, names []string) (map[string]*vip.Tree, error) {
	trees := map[string]*vip.Tree{}
	for _, name := range names {
		start := time.Now()
		t, err := vip.Build(venues[name], vip.DefaultOptions())
		if err != nil {
			return nil, err
		}
		end := time.Now()
		tr.record("vip.build", 0, tr.request(), start, end)
		res.layer["vip.build_ms."+name] = ms(end.Sub(start))
		vipShape(res, name, t)
		if tr != nil {
			trees[name] = t
		}
	}
	return trees, nil
}

// coreLayer accumulates direct solver timings.
type coreLayer struct {
	solveMS      []float64
	locate, exec time.Duration
}

// time solves r directly on ix, then runs core.Exec on t with an obs.Trace
// recorder to find how much of Exec comes before its locate span.
func (cl *coreLayer) time(tr *tracer, ix *ifls.Index, t *vip.Tree, r *request) error {
	ctx := context.Background()
	rid := tr.request()
	start := time.Now()
	if err := directSolve(ctx, ix, r); err != nil {
		return err
	}
	end := time.Now()
	tr.record("core.solve", 0, rid, start, end)
	cl.solveMS = append(cl.solveMS, ms(end.Sub(start)))

	var trace obs.Trace
	start = time.Now()
	if _, err := core.Exec(ctx, t, r.query, core.Options{
		Objective: coreObjective(r.objective), K: r.k, Recorder: &trace,
	}); err != nil {
		return err
	}
	end = time.Now()
	id := tr.record("core.exec", 0, rid, start, end)
	for _, sp := range trace.Spans() {
		if sp.Stage == obs.StageLocate {
			tr.record("core.locate_stage", id, rid, start, start.Add(sp.Elapsed))
			cl.locate += sp.Elapsed
			break
		}
	}
	cl.exec += end.Sub(start)
	return nil
}

// directSolve answers r through the Index method for its objective.
func directSolve(ctx context.Context, ix *ifls.Index, r *request) error {
	var err error
	switch r.objective {
	case "minmax":
		_, err = ix.SolveContext(ctx, r.query)
	case "mindist":
		_, err = ix.SolveMinDistContext(ctx, r.query)
	case "maxsum":
		_, err = ix.SolveMaxSumContext(ctx, r.query)
	case "topk":
		_, err = ix.SolveTopKContext(ctx, r.query, r.k)
	}
	return err
}

func coreObjective(name string) core.Objective {
	switch name {
	case "mindist":
		return core.ObjMinDist
	case "maxsum":
		return core.ObjMaxSum
	case "topk":
		return core.ObjTopK
	}
	return core.ObjMinMax
}

// vipShape records a tree's shape counts as per-layer metrics and in the
// ledger.
func vipShape(res *result, venue string, t *vip.Tree) {
	leaves, maxAccess := 0, 0
	for n := 0; n < t.NumNodes(); n++ {
		id := vip.NodeID(n)
		if t.IsLeaf(id) {
			leaves++
		}
		if a := len(t.AccessDoors(id)); a > maxAccess {
			maxAccess = a
		}
	}
	cells := t.MemoryFootprint()
	res.layer["vip.leaves."+venue] = float64(leaves)
	res.layer["vip.max_access_doors."+venue] = float64(maxAccess)
	res.layer["vip.matrix_cells."+venue] = float64(cells)
	res.count("vip.leaves."+venue, int64(leaves))
	res.count("vip.matrix_cells."+venue, int64(cells))
}
