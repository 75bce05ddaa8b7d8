package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	ifls "github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// The restart workload: v3 paged index files for MC and CH are written
// during set-up; each cycle then reopens both under one page-cache budget,
// registers them with a fresh server, waits for the first answer of each
// venue and runs a short sequential stream of small queries before closing.
const (
	// restartCacheBytes is the page-cache budget of each opened file: MC's
	// file fits inside it, CH's does not.
	restartCacheBytes = 4 << 20
	restartExisting   = 5
	restartCandidates = 10
)

// restartVenues gives each venue its small-query client count and how many
// distinct queries its pool holds. A paged CH query costs about ten times
// a paged MC query of the same size, so CH queries carry fewer clients.
var restartVenues = []struct {
	name    string
	clients int
	pool    int
}{
	{"MC", 50, 12},
	{"CH", 10, 4},
}

// restartStream is one cycle's stream after the first answers, as indexes
// into restartVenues.
var restartStream = []int{0, 0, 0, 1, 0, 0, 0, 1}

type restartEnv struct {
	venues map[string]*ifls.Venue
	// indexes are the resident indexes the files were written from; they
	// answer the reference queries and are then dropped.
	indexes map[string]*ifls.Index
	files   map[string]string
}

func restartSetup(dir string) func() (*restartEnv, error) {
	return func() (*restartEnv, error) {
		env := &restartEnv{venues: map[string]*ifls.Venue{}, indexes: map[string]*ifls.Index{}, files: map[string]string{}}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for _, rv := range restartVenues {
			v, err := ifls.SampleVenue(rv.name)
			if err != nil {
				return nil, err
			}
			ix, err := ifls.NewIndex(v)
			if err != nil {
				return nil, fmt.Errorf("indexing %s: %w", rv.name, err)
			}
			path := filepath.Join(dir, rv.name+".v3")
			if err := writePaged(ix, path); err != nil {
				return nil, err
			}
			env.venues[rv.name], env.indexes[rv.name], env.files[rv.name] = v, ix, path
		}
		return env, nil
	}
}

func writePaged(ix *ifls.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.SavePaged(f, ifls.PagedSaveOptions{}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// cycleStats is what one restart cycle measured.
type cycleStats struct {
	ready, firstAnswer time.Duration
	// firstCPU is the process CPU time of the cycle up to its first
	// answers.
	firstCPU time.Duration
	// heapMB is the live heap after the stream, before Close.
	heapMB     float64
	stream     []outcome // first answers first, then the stream
	streamTime time.Duration
	pager      map[string]obs.Snapshot
}

func runRestart(cfg config) (*result, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("restart-seed%d", cfg.seed))
	defer os.RemoveAll(dir)
	env, setup, err := timedSetup(restartSetup(dir))
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var names []string
	for _, rv := range restartVenues {
		names = append(names, rv.name)
	}
	trees, err := venueTrees(tr, res, env.venues, names)
	if err != nil {
		return nil, err
	}
	pools, err := restartPools(env, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := restartReferences(cfg, env, pools); err != nil {
		return nil, err
	}
	env.indexes = nil

	cycles, err := restartCycles(env, pools, cfg.window, nil)
	if err != nil {
		return nil, err
	}
	sum := summarizeCycles(cycles)
	res.name("query_p50_ms", sum.p50, "ms", fmt.Sprintf("paged stream, n=%d", sum.n))
	res.name("query_tail_ms", sum.tail, "ms", fmt.Sprintf("p%d, n=%d", sum.pct, sum.n))
	res.name("first_answer_ms", sum.firstAnswer, "ms", fmt.Sprintf("median over %d cycles, both venues answered", len(cycles)))
	res.name("ready_ms", sum.ready, "ms", fmt.Sprintf("median over %d cycles, OpenIndexFile+AddVenue for both venues", len(cycles)))
	res.name("stream_qps", sum.qps, "1/s", "sequential stream completions per second")
	res.name("query_cpu_ms", sum.cpuQuery, "ms", "median process CPU time of a stream query")
	res.name("first_answer_cpu_ms", sum.cpuFirst, "ms", "median process CPU time from the start of a cycle to its first answers")
	res.nameSetup(setup)
	res.name("heap_mb", sum.heap, "MB", "median live heap with both paged indexes served, after each cycle's stream, after a GC")
	res.sample("cycles", len(cycles))
	res.sample("stream_queries", sum.n)
	res.metrics["op_cpu_ms"] = sum.cpuQuery
	res.metrics["slow_op_cpu_ms"] = sum.cpuFirst
	res.metrics["heap_mb"] = sum.heap

	// The ledger: pages read by the first cycle, whose stream is
	// sequential on each venue's own cache and so repeats exactly.
	for _, rv := range restartVenues {
		res.count("pager.pages_read."+rv.name, cycles[0].pager[rv.name].PagesRead)
	}

	all := cycles
	if cfg.trace {
		traced, err := restartTraced(cfg, env, tr, trees, pools, sum.p50, res)
		if err != nil {
			return nil, err
		}
		all = append(all, traced...)
	}
	for _, c := range all {
		for i := range c.stream {
			o := &c.stream[i]
			res.attempted++
			if !o.ok() || !o.req.want.equal(fromResponse(o.resp)) {
				res.failed++
			}
		}
	}
	return res, nil
}

// restartPools draws each venue's pool of small queries.
func restartPools(env *restartEnv, seed int64) ([][]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]*request, len(restartVenues))
	for i, rv := range restartVenues {
		g := ifls.NewWorkloadGenerator(env.venues[rv.name])
		for j := 0; j < rv.pool; j++ {
			q, err := g.Query(restartExisting, restartCandidates, rv.clients, ifls.Uniform, 0, rng)
			if err != nil {
				return nil, err
			}
			r := &request{venue: rv.name, objective: "minmax", query: q, checked: true}
			if r.body, err = json.Marshal(wireRequest(rv.name, r.objective, 0, q)); err != nil {
				return nil, err
			}
			pools[i] = append(pools[i], r)
		}
	}
	return pools, nil
}

// restartReferences answers every pooled query on the resident index.
func restartReferences(cfg config, env *restartEnv, pools [][]*request) error {
	for i, pool := range pools {
		for j, r := range pool {
			got, err := env.indexes[r.venue].SolveContext(context.Background(), r.query)
			if err != nil {
				return err
			}
			r.want = fromResult(got.Found, got.Answer, got.Objective)
			if cfg.injectWrong && i == 0 && j == 0 {
				r.want.found, r.want.answer = true, -2
			}
		}
	}
	return nil
}

// restartCycles runs restart cycles until the window has elapsed.
func restartCycles(env *restartEnv, pools [][]*request, window time.Duration, tr *tracer) ([]cycleStats, error) {
	heapMB()
	var cycles []cycleStats
	next := make([]int, len(pools))
	take := func(v int) *request {
		r := pools[v][next[v]%len(pools[v])]
		next[v]++
		return r
	}
	stop := time.Now().Add(window)
	for len(cycles) == 0 || time.Now().Before(stop) {
		c, err := restartCycle(env, take, tr)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}

func restartCycle(env *restartEnv, take func(int) *request, tr *tracer) (cycleStats, error) {
	c := cycleStats{pager: map[string]obs.Snapshot{}}
	rid := tr.request()
	cpu0 := cpuTime()
	t0 := time.Now()
	root := tr.open("gen.cycle", 0, rid, t0)
	srv := ifls.NewServer(ifls.ServerOptions{Metrics: ifls.NewMetrics()})
	metrics := map[string]*ifls.Metrics{}
	paged := map[string]*ifls.Index{}
	defer func() {
		for _, ix := range paged {
			ix.Close()
		}
	}()
	for _, rv := range restartVenues {
		m := ifls.NewMetrics()
		start := time.Now()
		ix, err := ifls.OpenIndexFile(env.files[rv.name], env.venues[rv.name],
			ifls.PagedIndexOptions{CacheBytes: restartCacheBytes, Metrics: m})
		if err != nil {
			return c, err
		}
		mid := time.Now()
		tr.record("vip.open_file", root, rid, start, mid)
		if err := srv.AddVenue(rv.name, ix); err != nil {
			ix.Close()
			return c, err
		}
		tr.record("server.add_venue", root, rid, mid, time.Now())
		metrics[rv.name], paged[rv.name] = m, ix
	}
	c.ready = time.Since(t0)

	// First answers: one query per venue, sent at once.
	h := srv.Handler()
	firsts := make([]outcome, len(restartVenues))
	var wg sync.WaitGroup
	for i := range restartVenues {
		firsts[i] = outcome{req: take(i), due: time.Now()}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			call(h, o, tr, root, rid)
		}(&firsts[i])
	}
	wg.Wait()
	firstDone := t0
	for i := range firsts {
		if firsts[i].end.After(firstDone) {
			firstDone = firsts[i].end
		}
	}
	c.firstAnswer = firstDone.Sub(t0)
	c.firstCPU = cpuTime() - cpu0

	streamStart := time.Now()
	for _, v := range restartStream {
		o := outcome{req: take(v), due: time.Now()}
		cpu0 := cpuTime()
		call(h, &o, tr, root, rid)
		o.cpu = cpuTime() - cpu0
		c.stream = append(c.stream, o)
	}
	c.streamTime = time.Since(streamStart)
	c.stream = append(firsts, c.stream...)

	if tr == nil {
		c.heapMB = heapMB()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return c, err
	}
	for name, ix := range paged {
		start := time.Now()
		err := ix.Close()
		tr.record("vip.close", root, rid, start, time.Now())
		delete(paged, name)
		if err != nil {
			return c, err
		}
		c.pager[name] = metrics[name].Snapshot()
	}
	tr.close(root, time.Now())
	return c, nil
}

type cycleSummary struct {
	p50, tail, firstAnswer, ready, qps float64
	cpuQuery, cpuFirst, heap           float64
	pct, n                             int
}

func summarizeCycles(cycles []cycleStats) cycleSummary {
	var lat, first, ready, cpu, firstCPU, heap []float64
	var streamTime time.Duration
	for _, c := range cycles {
		for _, o := range c.stream[len(restartVenues):] {
			lat = append(lat, o.latency())
			cpu = append(cpu, ms(o.cpu))
		}
		first = append(first, ms(c.firstAnswer))
		ready = append(ready, ms(c.ready))
		heap = append(heap, c.heapMB)
		firstCPU = append(firstCPU, ms(c.firstCPU))
		streamTime += c.streamTime
	}
	s := cycleSummary{p50: median(lat), firstAnswer: median(first), ready: median(ready), n: len(lat)}
	s.cpuQuery, s.cpuFirst, s.heap = median(cpu), median(firstCPU), median(heap)
	s.pct, s.tail = tail(lat)
	s.qps = frac(float64(len(lat)), streamTime.Seconds())
	return s
}

// restartTraced repeats the cycles with spans recorded and fills in the
// per-layer metrics.
func restartTraced(cfg config, env *restartEnv, tr *tracer, trees map[string]*vip.Tree, pools [][]*request, untracedP50 float64, res *result) ([]cycleStats, error) {
	cycles, err := restartCycles(env, pools, cfg.window, tr)
	if err != nil {
		return nil, err
	}
	sum := summarizeCycles(cycles)
	m := res.layer
	m["obs.trace_overhead_frac"] = frac(sum.p50-untracedP50, untracedP50)

	var all []outcome
	var queries, hits, misses, reads, evictions float64
	for _, c := range cycles {
		all = append(all, c.stream...)
		queries += float64(len(c.stream))
		for _, s := range c.pager {
			hits += float64(s.PageCacheHits)
			misses += float64(s.PageCacheMisses)
			reads += float64(s.PagesRead)
			evictions += float64(s.PageCacheEvictions)
		}
	}
	serverLayer(m, all)
	m["pager.lookups_per_query"] = frac(hits+misses, queries)
	m["pager.pages_read_per_query"] = frac(reads, queries)
	m["pager.hit_rate"] = frac(hits, hits+misses)
	m["pager.evictions_per_query"] = frac(evictions, queries)

	var cl coreLayer
	for i, rv := range restartVenues {
		if fi, err := os.Stat(env.files[rv.name]); err == nil {
			m["vip.index_file_mb."+rv.name] = float64(fi.Size()) / (1 << 20)
		}
		ix, err := ifls.NewIndex(env.venues[rv.name])
		if err != nil {
			return nil, err
		}
		for _, r := range pools[i] {
			if err := cl.time(tr, ix, trees[rv.name], r); err != nil {
				return nil, err
			}
		}
		m["core.exec_ms_p50."+rv.name] = median(cl.solveMS)
		cl.solveMS = nil
	}
	m["core.locate_frac"] = frac(float64(cl.locate), float64(cl.exec))
	return cycles, writeSpans(cfg, tr, res)
}
