// Command perfbench is the repository benchmark. It drives one workload
// through the public surfaces a deployment uses — the iflsd query handler
// (called in-process), paged index files reopened with OpenIndexFile, and
// the continuous engine — checks every answer it can afford to, and prints
// its metrics:
//
//	perfbench --workload serve|restart|rushhour --seed N --seconds S --trace 0|1
//
// The report lines come first, then the exact work-count ledger, then, as
// the last line, one JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run measures the workload untraced, then again with spans
// recorded around every call into a layer, writes the spans under --out
// and reports the per-layer metrics. README.md lists the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the timed window (--seconds)
	trace    bool
	out      string // directory for span files
	// injectWrong corrupts the reference answer of the first checked
	// operation, so tests can see a wrong answer counted as a failure.
	injectWrong bool
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of a --trace 0 run. Each workload gives
// every one of them a value; README.md maps them to the workload's own
// named metrics, which the report prints too (query_p50_ms,
// first_answer_ms, tick_p50_ms, ...).
var endToEnd = []metricDef{
	{"op_cpu_ms", "ms"},
	{"slow_op_cpu_ms", "ms"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

var allVenues = []string{"CPH", "MC", "CH", "MZB"}

// setupReps is how many times every run sets up; setup_s is their median.
const setupReps = 5

// perLayer are the metrics of a --trace 1 run. A layer a workload bypasses
// reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	perVenue := func(prefix, unit string, venues []string) {
		for _, v := range venues {
			add(prefix+"."+v, unit)
		}
	}
	add("server.outside_ms_p50", "ms")
	add("server.coalesced_frac", "ratio")
	add("server.shed_frac", "ratio")
	perVenue("core.exec_ms_p50", "ms", allVenues)
	add("core.locate_frac", "ratio")
	add("core.queue_pops", "count")
	add("core.distance_calcs", "count")
	add("core.retrievals", "count")
	add("core.prune_rate", "ratio")
	add("core.retained_kb", "KiB")
	add("locate.ns_per_point", "ns")
	perVenue("vip.build_ms", "ms", allVenues)
	perVenue("vip.leaves", "count", allVenues)
	perVenue("vip.max_access_doors", "count", allVenues)
	perVenue("vip.matrix_cells", "count", allVenues)
	add("vip.era_build_ms_p50", "ms")
	perVenue("vip.index_file_mb", "MB", []string{"MC", "CH"})
	add("pager.lookups_per_query", "count")
	add("pager.pages_read_per_query", "count")
	add("pager.hit_rate", "ratio")
	add("pager.evictions_per_query", "count")
	add("continuous.resolved_per_tick", "count")
	add("continuous.reused_frac", "ratio")
	add("continuous.invalidated_per_transition", "count")
	add("continuous.answer_changes", "count")
	add("continuous.resolve_ms_p50", "ms")
	add("motion.step_ms_p50", "ms")
	add("temporal.snapshot_ms_p50", "ms")
	add("obs.trace_overhead_frac", "ratio")
	add("gen.late_ms_p99", "ms")
	return defs
}()

// result is what a workload hands back for printing.
type result struct {
	// metrics holds the end-to-end values, keyed by name.
	metrics map[string]float64
	// layer holds the per-layer values, keyed by name; a --trace 1 run
	// prints them instead of metrics.
	layer map[string]float64
	// named are the workload's own metrics, printed in the report by the
	// names the workload defines them under.
	named []namedMetric
	// ledger holds the machine-independent work counts; they repeat bit
	// for bit for one seed.
	ledger []ledgerEntry
	// samples counts the operations behind each reported statistic.
	samples []sampleCount
	// attempted and failed count operations; a failure is an error, a
	// non-200 response or an answer that fails its check.
	attempted, failed int
	// invalid, when set, says why the run cannot be reported.
	invalid string
	// selfMS is each traced layer's self time.
	selfMS map[string]float64
	// spanFile is where the spans were written.
	spanFile string
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

type ledgerEntry struct {
	name  string
	value int64
}

type sampleCount struct {
	name string
	n    int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) name(name string, value float64, unit, note string) {
	r.named = append(r.named, namedMetric{name, value, unit, note})
}

func (r *result) count(name string, value int64) {
	r.ledger = append(r.ledger, ledgerEntry{name, value})
}

func (r *result) sample(name string, n int) {
	r.samples = append(r.samples, sampleCount{name, n})
}

var workloads = map[string]func(config) (*result, error){
	"serve":    runServe,
	"restart":  runRestart,
	"rushhour": runRushHour,
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: serve, restart or rushhour")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for span files")
	injectWrong := fl.Bool("inject-wrong", false, "corrupt one reference answer (for tests)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve|restart|rushhour, --seconds > 0, --trace 0|1 (got %q, %v, %d)\n",
			*workload, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace == 1, out: *out,
		window:      time.Duration(*seconds * float64(time.Second)),
		injectWrong: *injectWrong,
	}
	fmt.Fprintf(stdout, "# perfbench %s\n", stamp(cfg))
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if res.invalid != "" {
		fmt.Fprintf(stdout, "# RUN INVALID: %s\n", res.invalid)
		fmt.Fprintf(stderr, "perfbench: run invalid, not reported: %s\n", res.invalid)
		return 3
	}
	if err := printResult(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// stamp identifies what was measured and where.
func stamp(cfg config) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%t commit=%s source_sha256=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, commit(), sourceDigest(),
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// commit reads the checked-out commit from .git when there is one; a
// checkout exported without git history is identified by sourceDigest.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod files under the
// working directory, so a run names the code it measured even without git.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB is the Go heap in use after forced collections: the bytes of
// live heap objects. The second collection empties what sync.Pool caches
// kept through the first, which otherwise varies from run to run.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupCost is the median cost of a workload's set-up.
type setupCost struct {
	cpuS, wallS float64
}

// timedSetup runs set-up setupReps times, keeping the last result, and
// returns the median process CPU time and wall time of one set-up.
func timedSetup[T any](setup func() (T, error)) (T, setupCost, error) {
	var env T
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		var zero T
		env = zero // drop the previous set-up before collecting
		runtime.GC()
		cpu0, start := cpuTime(), time.Now()
		var err error
		env, err = setup()
		if err != nil {
			return env, setupCost{}, err
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - cpu0).Seconds())
	}
	return env, setupCost{cpuS: median(cpu), wallS: median(wall)}, nil
}

// nameSetup reports both set-up medians; setup_s is the CPU one.
func (r *result) nameSetup(c setupCost) {
	r.name("setup_s", c.cpuS, "s", fmt.Sprintf("process CPU time, median of %d set-ups", setupReps))
	r.name("setup_wall_s", c.wallS, "s", fmt.Sprintf("wall time, median of %d set-ups", setupReps))
	r.metrics["setup_s"] = c.cpuS
}

// cpuTime is the process's user plus system CPU time so far. The kernel
// leaves out time during which the host ran something else on the
// virtual CPU (steal), so it measures the work done, not the machine's
// availability.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printResult(w io.Writer, cfg config, res *result) error {
	fmt.Fprintf(w, "# samples:")
	for _, s := range res.samples {
		fmt.Fprintf(w, " %s=%d", s.name, s.n)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## workload metrics")
	for _, m := range res.named {
		fmt.Fprintf(w, "%-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	errRate := frac(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(w, "%-34s %14.6f %-6s failed=%d attempted=%d\n", "error_rate", errRate, "ratio", res.failed, res.attempted)

	defs, values := endToEnd, res.metrics
	title := "## end-to-end metrics"
	if cfg.trace {
		defs, values, title = perLayer, res.layer, "## per-layer metrics"
	}
	fmt.Fprintln(w, title)
	out := jsonResult{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		fmt.Fprintf(w, "%-40s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if cfg.trace {
		fmt.Fprintf(w, "## layer self time (spans in %s)\n", res.spanFile)
		layers := make([]string, 0, len(res.selfMS))
		for l := range res.selfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "self_ms.%-32s %16.3f ms\n", l, res.selfMS[l])
		}
	}
	fmt.Fprintln(w, "## work ledger (exact counts, repeat bit for bit for one seed)")
	for _, e := range res.ledger {
		fmt.Fprintf(w, "ledger %-40s %d\n", e.name, e.value)
	}
	if res.attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// writeSpans stores a traced run's spans and fills in the self times.
func writeSpans(cfg config, tr *tracer, res *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	res.spanFile = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	res.selfMS = tr.selfTimes()
	return tr.write(res.spanFile)
}
