package d2d

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
)

// Unreachable is the distance reported for door pairs with no connecting
// path. Venues built by indoor.Builder are always connected, but the oracle
// stays total for robustness.
var Unreachable = math.Inf(1)

// Graph is the door-to-door graph of a venue, stored in CSR (compressed
// sparse row) form: door d's outgoing edges are nbr[off[d]:off[d+1]] with
// weights wt at the same indexes. The flat layout keeps every Dijkstra
// relaxation on two contiguous arrays instead of a slice-of-slices pointer
// chase. It is immutable after New, apart from an atomic work counter,
// and safe for concurrent use.
type Graph struct {
	venue *indoor.Venue
	off   []int32
	nbr   []indoor.DoorID
	wt    []float64

	// settled counts the doors PointRoute's searches have settled, summed
	// over every call: the machine-independent work of route planning.
	settled atomic.Int64
}

// New builds the door graph of v. Edge order within a door's row follows the
// partition scan order of the venue, which downstream shortest-path parent
// trees (Path, PointRoute) depend on for deterministic tie-breaks.
func New(v *indoor.Venue) *Graph {
	n := v.NumDoors()
	g := &Graph{venue: v, off: make([]int32, n+1)}
	// Pass 1: count edges per door. Every ordered intra-partition door pair
	// contributes one edge.
	for pi := range v.Partitions {
		doors := v.Partitions[pi].Doors
		for _, d := range doors {
			g.off[d+1] += int32(len(doors) - 1)
		}
	}
	for d := 0; d < n; d++ {
		g.off[d+1] += g.off[d]
	}
	g.nbr = make([]indoor.DoorID, g.off[n])
	g.wt = make([]float64, g.off[n])
	// Pass 2: fill rows in the same scan order, advancing a per-door cursor.
	cur := make([]int32, n)
	copy(cur, g.off[:n])
	for pi := range v.Partitions {
		p := &v.Partitions[pi]
		doors := p.Doors
		for i := 0; i < len(doors); i++ {
			for j := 0; j < len(doors); j++ {
				if i == j {
					continue
				}
				c := cur[doors[i]]
				g.nbr[c] = doors[j]
				g.wt[c] = v.IntraDoorDist(p.ID, doors[i], doors[j])
				cur[doors[i]] = c + 1
			}
		}
	}
	return g
}

// Venue returns the venue the graph was built from.
func (g *Graph) Venue() *indoor.Venue { return g.venue }

// FromDoor returns the shortest indoor distance from src to every door.
func (g *Graph) FromDoor(src indoor.DoorID) []float64 {
	dist, _ := g.fullSearch([]indoor.DoorID{src}, []float64{0}, false)
	return dist
}

// FromDoorWithParents additionally returns, for each door, the predecessor
// door on a shortest path from src (-1 for src itself and unreachable doors).
func (g *Graph) FromDoorWithParents(src indoor.DoorID) ([]float64, []indoor.DoorID) {
	return g.fullSearch([]indoor.DoorID{src}, []float64{0}, true)
}

// FromDoors runs a multi-source Dijkstra: source door i starts with
// distance offsets[i]. This models a point source, whose distance to each
// door of its own partition is the in-partition offset.
func (g *Graph) FromDoors(srcs []indoor.DoorID, offsets []float64) []float64 {
	dist, _ := g.fullSearch(srcs, offsets, false)
	return dist
}

// search is the working state of one Dijkstra run. FromDoor, FromDoors
// and Path use fresh state, since their results escape to the caller, and
// a queue local to the call, which stays off the heap; PointRoute borrows
// the state and its queue q from searchPool for the length of the call.
type search struct {
	dist   []float64
	parent []indoor.DoorID           // nil when the caller wants no parents
	q      *pq.Bucket[indoor.DoorID] // pooled searches only

	// The early stop PointRoute sets: the run ends once goalLeft reaches 0
	// (every door marked in goal is settled) or once off plus the popped
	// distance reaches bound. A fresh search has no goal and an infinite
	// bound, so it runs to exhaustion.
	goal       []bool
	goalLeft   int
	off, bound float64

	settled int // doors settled since PointRoute took the search
}

// searchPool holds PointRoute's search state between calls.
var searchPool = sync.Pool{New: func() any {
	return &search{q: pq.NewBucket[indoor.DoorID](64)}
}}

// fullSearch runs one search to exhaustion on fresh state, with parents
// when wantParents.
func (g *Graph) fullSearch(srcs []indoor.DoorID, offsets []float64, wantParents bool) ([]float64, []indoor.DoorID) {
	n := g.venue.NumDoors()
	s := search{dist: make([]float64, n), bound: Unreachable}
	if wantParents {
		s.parent = make([]indoor.DoorID, n)
	}
	s.reset()
	g.dijkstra(&s, pq.NewBucket[indoor.DoorID](64), srcs, offsets)
	return s.dist, s.parent
}

// reset makes every door unreached.
func (s *search) reset() {
	for i := range s.dist {
		s.dist[i] = Unreachable
	}
	for i := range s.parent {
		s.parent[i] = -1
	}
}

// dijkstra runs one search from srcs, door i starting at offsets[i], on
// the empty queue q, until q empties or s's early stop fires. Every door
// it settles has its final distance and parent: a later pop is no closer
// (pops are nondecreasing and edge weights >= 0), so nothing relaxes it
// again. The stop therefore leaves the settled doors exactly as a run to
// exhaustion would, and every other door at a tentative distance no less
// than the last pop.
func (g *Graph) dijkstra(s *search, q *pq.Bucket[indoor.DoorID], srcs []indoor.DoorID, offsets []float64) {
	// The hot loop works on locals: stores through s would make the
	// compiler reload every field on each relaxation.
	dist, parent, goal := s.dist, s.parent, s.goal
	goalLeft, off, bound := s.goalLeft, s.off, s.bound
	settled := 0
	// Dijkstra pops in nondecreasing distance order, so the monotone bucket
	// queue applies; its fallback heap never engages here.
	for i, src := range srcs {
		if offsets[i] < dist[src] {
			dist[src] = offsets[i]
			q.Push(src, offsets[i])
		}
	}
	for !q.Empty() {
		d, dd := q.Pop()
		if dd > dist[d] {
			continue // stale entry
		}
		if off+dd >= bound {
			break
		}
		settled++
		if goal != nil && goal[d] {
			if goalLeft--; goalLeft == 0 {
				break
			}
		}
		for c := g.off[d]; c < g.off[d+1]; c++ {
			to := g.nbr[c]
			nd := dd + g.wt[c]
			if nd < dist[to] {
				dist[to] = nd
				if parent != nil {
					parent[to] = d
				}
				q.Push(to, nd)
			}
		}
	}
	s.settled += settled
}

// DoorToDoor returns the shortest indoor distance between two doors.
func (g *Graph) DoorToDoor(a, b indoor.DoorID) float64 {
	if a == b {
		return 0
	}
	return g.FromDoor(a)[b]
}

// Path returns the door sequence of a shortest path from a to b, inclusive
// of both endpoints, or nil if unreachable.
func (g *Graph) Path(a, b indoor.DoorID) []indoor.DoorID {
	if a == b {
		return []indoor.DoorID{a}
	}
	dist, parent := g.FromDoorWithParents(a)
	if math.IsInf(dist[b], 1) {
		return nil
	}
	var rev []indoor.DoorID
	for d := b; d != -1; d = parent[d] {
		rev = append(rev, d)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PointRoute returns a shortest indoor route from point p in partition pp
// to point q in partition qp: the door sequence crossed (empty when both
// points share a partition) and the total distance.
//
// It searches once per door sd of pp, at in-partition offset off, and
// keeps the first strictly shortest (source door, goal door) combination.
// Each search stops early: once every door of qp is settled, or once off
// plus the popped distance reaches the best total so far, since no door
// settled later can then give a shorter route. Settled distances and
// parents are final, so the route and its distance are bit-identical to
// searching the whole graph. The searches share one distance, parent and
// queue scratch, borrowed from a sync.Pool for the call; the returned door
// slice is always fresh.
func (g *Graph) PointRoute(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) ([]indoor.DoorID, float64) {
	v := g.venue
	if pp == qp {
		return nil, v.IntraPointDist(pp, p, q)
	}
	s := searchPool.Get().(*search)
	n := v.NumDoors()
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.parent = make([]indoor.DoorID, n)
		s.goal = make([]bool, n)
	}
	s.dist, s.parent, s.goal = s.dist[:n], s.parent[:n], s.goal[:n]
	s.settled = 0
	goalDoors := v.Partition(qp).Doors
	for _, td := range goalDoors {
		s.goal[td] = true
	}
	bestDist := Unreachable
	var bestPath []indoor.DoorID
	for _, sd := range v.Partition(pp).Doors {
		off := v.PointDoorDist(pp, p, sd)
		s.reset()
		s.q.Reset()
		s.goalLeft, s.off, s.bound = len(goalDoors), off, bestDist
		g.dijkstra(s, s.q, []indoor.DoorID{sd}, []float64{0})
		for _, td := range goalDoors {
			total := off + s.dist[td] + v.PointDoorDist(qp, q, td)
			if total >= bestDist {
				continue
			}
			var rev []indoor.DoorID
			for d := td; d != -1; d = s.parent[d] {
				rev = append(rev, d)
			}
			if len(rev) == 0 || rev[len(rev)-1] != sd {
				continue // unreachable through this source door
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			bestDist, bestPath = total, rev
		}
	}
	for _, td := range goalDoors {
		s.goal[td] = false
	}
	g.settled.Add(int64(s.settled))
	searchPool.Put(s)
	return bestPath, bestDist
}

// PointToPoint returns the exact indoor distance between point p located in
// partition pp and point q located in partition qp. This is the ground
// truth every index is tested against.
func (g *Graph) PointToPoint(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) float64 {
	v := g.venue
	if pp == qp {
		return v.IntraPointDist(pp, p, q)
	}
	srcDoors := v.Partition(pp).Doors
	offsets := make([]float64, len(srcDoors))
	for i, d := range srcDoors {
		offsets[i] = v.PointDoorDist(pp, p, d)
	}
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(qp).Doors {
		if t := dist[d] + v.PointDoorDist(qp, q, d); t < best {
			best = t
		}
	}
	return best
}

// PointToPartition returns the exact indoor distance from point p in
// partition pp to partition target: the shortest distance to any point of
// the target, which is reached at one of its doors (distance from a
// partition to its own doors is zero, per the paper's iMinD convention).
func (g *Graph) PointToPartition(p geom.Point, pp indoor.PartitionID, target indoor.PartitionID) float64 {
	if pp == target {
		return 0
	}
	v := g.venue
	srcDoors := v.Partition(pp).Doors
	offsets := make([]float64, len(srcDoors))
	for i, d := range srcDoors {
		offsets[i] = v.PointDoorDist(pp, p, d)
	}
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(target).Doors {
		if dist[d] < best {
			best = dist[d]
		}
	}
	return best
}

// PartitionToPartition returns the shortest indoor distance between two
// partitions (zero if they share a door or are the same).
func (g *Graph) PartitionToPartition(a, b indoor.PartitionID) float64 {
	if a == b {
		return 0
	}
	v := g.venue
	srcDoors := v.Partition(a).Doors
	offsets := make([]float64, len(srcDoors)) // all zero: partition to own door costs 0
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(b).Doors {
		if dist[d] < best {
			best = dist[d]
		}
	}
	return best
}

// AllPairs computes the full door-to-door distance matrix. Intended for
// small venues (tests); construction-time callers use per-door FromDoor to
// bound memory.
func (g *Graph) AllPairs() [][]float64 {
	n := g.venue.NumDoors()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = g.FromDoor(indoor.DoorID(i))
	}
	return m
}

// Degree returns the number of outgoing edges of door d (diagnostics).
func (g *Graph) Degree(d indoor.DoorID) int { return int(g.off[d+1] - g.off[d]) }
