package vip

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// roomBehindRoom returns a corridor with four one-door rooms and one
// middle room M that leads on to an inner room I:
//
//	+----+----+----+----+----+
//	| R0 | R1 | M  d I  | R3 |
//	+-d--+-d--+-d--+----+-d--+
//	|        corridor        |
//	+------------------------+
//
// R0, R1, R3 and I are dead ends (I hangs off M, the rest off the
// corridor); M has two neighbours, so it is not one.
func roomBehindRoom() (v *indoor.Venue, corridor, middle, inner indoor.PartitionID) {
	b := indoor.NewBuilder("room-behind-room")
	corridor = b.AddCorridor(geom.R(0, 0, 50, 5, 0), "corridor")
	room := func(i int, name string) indoor.PartitionID {
		x := float64(10 * i)
		return b.AddRoom(geom.R(x, 5, x+10, 15, 0), name, "")
	}
	r0, r1 := room(0, "R0"), room(1, "R1")
	middle = room(2, "M")
	inner = room(3, "I")
	r3 := room(4, "R3")
	for i, p := range []indoor.PartitionID{r0, r1, middle, r3} {
		x := []float64{5, 15, 25, 45}[i]
		b.AddDoor(geom.Pt(x, 5, 0), p, corridor)
	}
	b.AddDoor(geom.Pt(30, 10, 0), middle, inner)
	return b.MustBuild(), corridor, middle, inner
}

// TestDeadEndsJoinNeighbourLeaf pins the leaf-grouping rule: a partition
// whose only neighbour has other neighbours always shares that neighbour's
// leaf, so none of its doors is an access door anywhere in the tree, and
// LeafFanout bounds only the other partitions of a leaf — down to 1.
func TestDeadEndsJoinNeighbourLeaf(t *testing.T) {
	hallways := []struct {
		name string
		v    *indoor.Venue
	}{
		{"grid", testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 3})},
		{"corridor3", testvenue.Corridor3()},
	}
	for _, h := range hallways {
		v := h.v
		for _, fanout := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/leaf-%d", h.name, fanout), func(t *testing.T) {
				tree := MustBuild(v, Options{LeafFanout: fanout, NodeFanout: 2, Vivid: true})
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				roomDoor := map[indoor.DoorID]bool{}
				rooms := 0
				for i := range v.Partitions {
					p := &v.Partitions[i]
					if p.Kind != indoor.Room || len(p.Doors) != 1 {
						continue
					}
					rooms++
					roomDoor[p.Doors[0]] = true
					hall := v.Door(p.Doors[0]).Other(p.ID)
					if tree.Leaf(p.ID) != tree.Leaf(hall) {
						t.Errorf("room %s in leaf %d, its hallway %d in leaf %d",
							p.Name, tree.Leaf(p.ID), hall, tree.Leaf(hall))
					}
				}
				if rooms == 0 {
					t.Fatal("venue has no one-door rooms")
				}
				for id := NodeID(0); int(id) < tree.NumNodes(); id++ {
					for _, d := range tree.AccessDoors(id) {
						if roomDoor[d] {
							t.Errorf("room door %d is an access door of node %d", d, id)
						}
					}
				}
			})
		}
	}
}

// TestDeadEndRuleIsOnePass: the inner room of a room-behind-a-room chain
// joins the middle room's leaf wherever the BFS put the middle room, and
// the middle room — a dead end only once the inner room is set aside — is
// not pulled into the corridor's leaf.
func TestDeadEndRuleIsOnePass(t *testing.T) {
	v, corridor, middle, inner := roomBehindRoom()
	for _, fanout := range []int{1, 2, 3, 8} {
		tree := MustBuild(v, Options{LeafFanout: fanout, NodeFanout: 2, Vivid: true})
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("leaf fanout %d: %v", fanout, err)
		}
		if tree.Leaf(inner) != tree.Leaf(middle) {
			t.Errorf("leaf fanout %d: inner room in leaf %d, middle room in leaf %d",
				fanout, tree.Leaf(inner), tree.Leaf(middle))
		}
		if fanout == 1 && tree.Leaf(middle) == tree.Leaf(corridor) {
			t.Errorf("leaf fanout 1: middle room shares the corridor's leaf; the rule was iterated")
		}
	}
}

// TestLegacyShapeIndexFiles loads index files written before dead-end
// partitions joined their neighbour's leaf, when every leaf held at most
// LeafFanout partitions in all: a v2 and a v3 (512-byte pages) file of
// testvenue.Default() and of a grid without inter-room doors, whose rooms
// are all dead ends, each at DefaultOptions. Both formats must still pass
// load-time validation and answer every partition-to-partition and
// point-to-partition distance as a fresh build does.
func TestLegacyShapeIndexFiles(t *testing.T) {
	cases := []struct {
		name string
		v    *indoor.Venue
	}{
		{"default", testvenue.Default()},
		{"deadend", testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2})},
	}
	for _, c := range cases {
		fresh := MustBuild(c.v, DefaultOptions())
		v2, err := os.ReadFile(filepath.Join("testdata", "legacy-shape", c.name+".v2.vip"))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(v2), c.v)
		if err != nil {
			t.Fatalf("%s v2: %v", c.name, err)
		}
		paged, err := OpenPagedFile(filepath.Join("testdata", "legacy-shape", c.name+".v3.vip"), c.v, PagedOptions{})
		if err != nil {
			t.Fatalf("%s v3: %v", c.name, err)
		}
		if c.name == "deadend" && loaded.NumNodes() == fresh.NumNodes() {
			t.Errorf("%s: legacy file has the fresh tree's %d nodes; it no longer tests the old shape",
				c.name, fresh.NumNodes())
		}
		for _, old := range []*Tree{loaded, paged} {
			sameDistances(t, c.name, c.v, old, fresh)
		}
		if err := paged.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameDistances compares every partition-to-partition distance, and the
// distance from each partition's centre to every partition, within the
// 1e-9 relative slack that differently-shaped trees' path sums need.
func sameDistances(t *testing.T, name string, v *indoor.Venue, got, want *Tree) {
	t.Helper()
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
	}
	for a := range v.Partitions {
		pa := indoor.PartitionID(a)
		centre := v.Partitions[a].Rect.Center()
		for b := range v.Partitions {
			pb := indoor.PartitionID(b)
			if g, w := got.DistPartitionToPartition(pa, pb), want.DistPartitionToPartition(pa, pb); !near(g, w) {
				t.Fatalf("%s: partition %d to %d: %v, fresh build %v", name, a, b, g, w)
			}
			if g, w := got.DistPointToPartition(centre, pa, pb), want.DistPointToPartition(centre, pa, pb); !near(g, w) {
				t.Fatalf("%s: centre of %d to partition %d: %v, fresh build %v", name, a, b, g, w)
			}
		}
	}
}
