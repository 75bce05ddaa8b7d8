package core

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestTieHeavyInstances stresses the equal-priority handling (queue tie
// drains, equal-distance d_low steps): a perfectly symmetric grid with
// clients at mirrored room centers produces many exactly-equal indoor
// distances. Every solver must still agree with the oracle.
func TestTieHeavyInstances(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	g := d2d.New(v)
	rooms := v.Rooms()

	// One client at the exact center of every room: distances from client
	// i to room j repeat massively by symmetry.
	var clients []Client
	for i, r := range rooms {
		clients = append(clients, clientIn(v, r, int32(i)))
	}
	cases := []struct {
		name string
		q    *Query
	}{
		{"one existing, all candidates", &Query{
			Existing:   rooms[:1],
			Candidates: rooms[1:],
			Clients:    clients,
		}},
		{"mirrored existing", &Query{
			Existing:   []indoor.PartitionID{rooms[0], rooms[len(rooms)-1]},
			Candidates: rooms[1 : len(rooms)-1],
			Clients:    clients,
		}},
		{"all rooms everything", &Query{
			Existing:   rooms[:3],
			Candidates: rooms,
			Clients:    clients,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := SolveBrute(g, tc.q)
			checkAgainstBrute(t, tc.q, mustExec(tree, tc.q, Options{}).MinMax, want)
			checkAgainstBrute(t, tc.q, mustExec(tree, tc.q, Options{Objective: ObjBaseline}).MinMax, want)
			checkExtAgainstBrute(t, "mindist", tc.q, mustExec(tree, tc.q, Options{Objective: ObjMinDist}).Ext, SolveBruteMinDist(g, tc.q))
			checkExtAgainstBrute(t, "maxsum", tc.q, mustExec(tree, tc.q, Options{Objective: ObjMaxSum}).Ext, SolveBruteMaxSum(g, tc.q))
		})
	}
}

// TestManyClientsOnePartition exercises the grouping path to its extreme:
// every client shares one partition, so a single explorer serves them all.
func TestManyClientsOnePartition(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[1:2],
		Candidates: rooms[3:8],
	}
	for i := 0; i < 100; i++ {
		u := float64(i%10) / 10
		w := float64(i/10) / 10
		q.Clients = append(q.Clients, Client{
			ID: int32(i), Part: rooms[0],
			Loc: v.RandomPointIn(rooms[0], u, w),
		})
	}
	want := SolveBrute(g, q)
	eff := mustExec(tree, q, Options{}).MinMax
	checkAgainstBrute(t, q, eff, want)
	// Exactly one explorer partition's node set should have been visited;
	// the retained structures must stay tiny relative to scattered clients.
	if eff.Stats.QueuePops > tree.NumNodes()*4 {
		t.Errorf("grouping failed: %d queue pops for a single client partition (%d nodes)",
			eff.Stats.QueuePops, tree.NumNodes())
	}
}
