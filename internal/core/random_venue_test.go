package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestRandomVenuesAllSolversAgree sweeps structurally randomized venues:
// for every seed, the index must validate against the oracle and all three
// solvers must agree. This is the broadest correctness net in the suite.
func TestRandomVenuesAllSolversAgree(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			v := testvenue.Random(seed)
			tree := vip.MustBuild(v, vip.Options{LeafFanout: 3 + int(seed%4), NodeFanout: 2 + int(seed%3), Vivid: seed%2 == 0})
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("tree invariants: %v", err)
			}
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(seed * 31))
			for trial := 0; trial < 8; trial++ {
				nRooms := len(v.Rooms())
				q := randomQuery(v, rng, 1+rng.Intn(nRooms/3+1), 1+rng.Intn(nRooms/2+1), 1+rng.Intn(30))
				want := SolveBrute(g, q)
				checkAgainstBrute(t, q, mustExec(tree, q, Options{}).MinMax, want)
				checkAgainstBrute(t, q, mustExec(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
				checkExtAgainstBrute(t, "mindist", q, mustExec(tree, q, Options{Objective: ObjMinDist}).Ext, SolveBruteMinDist(g, q))
				checkExtAgainstBrute(t, "maxsum", q, mustExec(tree, q, Options{Objective: ObjMaxSum}).Ext, SolveBruteMaxSum(g, q))
			}
		})
	}
}
