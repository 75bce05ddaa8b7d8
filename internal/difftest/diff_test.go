package difftest

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/vip"
)

// sweepShapes are the tree shapes every sweep venue is indexed under: the
// default, the smallest and the largest fanouts, and the plain IP-tree.
// Leaf grouping, access-door sets and the order of (min,+) path sums all
// move with the shape, so the efficient solver is checked on each.
var sweepShapes = []struct {
	name string
	opts vip.Options
}{
	{"default", vip.DefaultOptions()},
	{"fanout-1", vip.Options{LeafFanout: 1, NodeFanout: 2, Vivid: true}},
	{"fanout-128", vip.Options{LeafFanout: 128, NodeFanout: 16, Vivid: true}},
	{"ip-tree", vip.Options{LeafFanout: 8, NodeFanout: 4, Vivid: false}},
}

// TestDifferentialSweep is the tier-1 deterministic harness run: ≥200 seeded
// random venues, each indexed under every sweepShapes shape and answered
// under all six objectives through every answer path. Within one shape the
// engine paths must agree exactly; each is held to the oracle under the
// package's 1e-6 near-tie policy. Any disagreement is shrunk, at the same
// shape, to a minimal case and reported with a reproducer snippet and its
// corpus encoding.
func TestDifferentialSweep(t *testing.T) {
	venues := 210
	if testing.Short() {
		venues = 40
	}
	for _, shape := range sweepShapes {
		opts := shape.opts
		check := func(c Case) *Mismatch { return NewEnv(c.Venue, opts).Check(c.Query, c.Obj, c.K) }
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(venues); seed++ {
				v := GenVenue(seed)
				env := NewEnv(v, opts)
				q := GenQuery(v, seed*1000)
				rng := rand.New(rand.NewSource(seed * 7))
				for obj := core.Objective(0); obj < 6; obj++ {
					k := 1 + rng.Intn(3)
					if rng.Intn(4) == 0 {
						k = len(q.Candidates) + rng.Intn(2)
					}
					if m := env.Check(q, obj, k); m != nil {
						c := Case{Venue: v, Query: q, Obj: obj, K: k}
						min := Shrink(c, func(sc Case) bool { return check(sc) != nil })
						t.Fatalf("seed %d, tree %+v: %v\nshrunk reproducer:\n%s\nshrunk mismatch: %v",
							seed, opts, m, Reproduce(min), check(min))
					}
				}
			}
		})
	}
}
