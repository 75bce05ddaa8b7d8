package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/workload"
)

// updateGolden rewrites the checked-in counter snapshots from the current
// run instead of comparing against them. Use it after a deliberate
// algorithm or index-shape change, then review the diff like any other code
// change:
//
//	go test ./internal/bench -run 'TestQueuePopsDelta|TestTreeShapeDelta' -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/*.golden snapshots from this run's counters")

// queuePopsGolden is the checked-in snapshot TestQueuePopsDelta compares
// against: one line per sweep cell, tab-separated key and pop count.
const queuePopsGolden = "testdata/queue_pops.golden"

// treeShapeGolden is the checked-in snapshot TestTreeShapeDelta compares
// against: three lines per sample venue, tab-separated key and count.
const treeShapeGolden = "testdata/tree_shape.golden"

// deltaTolerance is the allowed relative growth of a pinned counter before
// the test fails: 10%. The counters are deterministic for a fixed seed, so
// any drift is a real behavior change; the slack only absorbs deliberate
// small reorderings (and cross-architecture float differences) without
// letting an asymptotic regression through.
const deltaTolerance = 0.10

// deltaPoint is one pinned counter: a sweep cell's queue pops, or one
// venue's shape measure.
type deltaPoint struct {
	key string
	n   int
}

// deltaSweep runs the Figure-5-shaped sweep the snapshot pins: the MC real
// setting at the default category, the Table 2 client sweep scaled down to
// smoke size, efficient solver only. Everything is seeded, so the queue-pop
// counters are exact reproducible quantities, not timings.
func deltaSweep(t *testing.T) []deltaPoint {
	t.Helper()
	cfg := DefaultConfig().Scaled(100)
	r := NewRunner()
	r.Queries = 2
	var out []deltaPoint
	for _, nc := range cfg.ClientSweep {
		cell := Cell{
			Venue: "MC", Category: cfg.RealDefaultCategory, Dist: workload.Uniform,
			NClients: nc, Seed: cfg.Seed,
		}
		m, err := r.Run(cell, Efficient)
		if err != nil {
			t.Fatalf("cell %s: %v", cell, err)
		}
		out = append(out, deltaPoint{
			key: fmt.Sprintf("%s queries=%d", cell, r.Queries),
			n:   m.Stats.QueuePops,
		})
	}
	return out
}

// readGolden parses a snapshot file into key → count.
func readGolden(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no counters snapshot at %s (run with -update-golden to create it): %v", path, err)
	}
	got := map[string]int{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("%s:%d: malformed line %q (want key<TAB>count)", path, ln+1, line)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			t.Fatalf("%s:%d: bad count %q: %v", path, ln+1, val, err)
		}
		got[key] = n
	}
	return got
}

// writeGolden rewrites a snapshot file: the header lines as comments, then
// the points in order.
func writeGolden(t *testing.T, path string, header []string, points []deltaPoint) {
	t.Helper()
	var b strings.Builder
	for _, h := range header {
		fmt.Fprintf(&b, "# %s\n", h)
	}
	for _, p := range points {
		fmt.Fprintf(&b, "%s\t%d\n", p.key, p.n)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDelta compares points against the snapshot at path (or rewrites it
// under -update-golden): a counter more than deltaTolerance above its
// snapshot fails, one more than deltaTolerance below is logged as an
// improvement, and a key present on only one side fails.
func checkDelta(t *testing.T, path string, header []string, points []deltaPoint) {
	t.Helper()
	if *updateGolden {
		writeGolden(t, path, header, points)
		t.Logf("rewrote %s with %d entries", path, len(points))
		return
	}
	want := readGolden(t, path)
	seen := map[string]bool{}
	for _, p := range points {
		seen[p.key] = true
		w, ok := want[p.key]
		if !ok {
			t.Errorf("%q missing from %s (sweep changed? run -update-golden and review)", p.key, path)
			continue
		}
		switch {
		case float64(p.n) > float64(w)*(1+deltaTolerance):
			t.Errorf("%q: %d, snapshot %d (+%.1f%% > %.0f%% tolerance)",
				p.key, p.n, w, 100*(float64(p.n)/float64(w)-1), 100*deltaTolerance)
		case float64(p.n) < float64(w)*(1-deltaTolerance):
			t.Logf("%q improved: %d vs snapshot %d — consider -update-golden to tighten the bound",
				p.key, p.n, w)
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("snapshot entry %q no longer produced (run -update-golden and review)", key)
		}
	}
}

// TestQueuePopsDelta guards the traversal's work complexity: it replays a
// seeded Figure-5-style sweep and fails if the efficient solver pops more
// than deltaTolerance extra queue entries versus the checked-in snapshot.
// Wall-clock benchmarks are too noisy for CI; pop counts are exact, machine
// independent, and track the same asymptotic cost the paper's Figure 5
// measures.
func TestQueuePopsDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("delta sweep runs a multi-cell workload")
	}
	checkDelta(t, queuePopsGolden, []string{
		"Queue-pop counters for the efficient solver on the Figure-5-style",
		"smoke sweep (MC real setting, scaled client sweep, 2 queries per cell).",
		"Deterministic for the fixed seed; TestQueuePopsDelta fails if the",
		"solver starts popping >10% more entries than this snapshot.",
		"Regenerate: go test ./internal/bench -run TestQueuePopsDelta -update-golden",
	}, deltaSweep(t))
}

// TestTreeShapeDelta guards the index shape the traversal's cost follows:
// for each sample venue at vip.DefaultOptions it pins the leaf count, the
// largest access-door set and the matrix cells (Tree.MemoryFootprint), and
// fails if any grows by more than deltaTolerance. Like queue pops these are
// exact and machine independent, while the (min,+) work of a query grows
// with them.
func TestTreeShapeDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the VIP-trees of all four sample venues")
	}
	r := NewRunner()
	var points []deltaPoint
	for _, name := range venues.Names {
		tree, err := r.Tree(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := ShapeOf(tree)
		points = append(points,
			deltaPoint{name + " leaves", s.Leaves},
			deltaPoint{name + " max_access_doors", s.MaxAccessDoors},
			deltaPoint{name + " matrix_cells", s.Cells})
	}
	checkDelta(t, treeShapeGolden, []string{
		"VIP-tree shape per sample venue at vip.DefaultOptions: leaves, largest",
		"access-door set, matrix cells (Tree.MemoryFootprint). Deterministic;",
		"TestTreeShapeDelta fails if any grows >10% past this snapshot.",
		"Regenerate: go test ./internal/bench -run TestTreeShapeDelta -update-golden",
	}, points)
}
