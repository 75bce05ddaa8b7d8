package d2d

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// fullRoutes is the oracle the early-stop PointRoute is pinned against:
// PointRoute as it was before its searches stopped early, one Dijkstra to
// exhaustion per source door. The searches are memoized per source door
// (they are deterministic), so thousands of pairs stay cheap.
type fullRoutes struct {
	g      *Graph
	dist   map[indoor.DoorID][]float64
	parent map[indoor.DoorID][]indoor.DoorID
}

func newFullRoutes(g *Graph) *fullRoutes {
	return &fullRoutes{g: g, dist: map[indoor.DoorID][]float64{}, parent: map[indoor.DoorID][]indoor.DoorID{}}
}

func (o *fullRoutes) fromDoor(sd indoor.DoorID) ([]float64, []indoor.DoorID) {
	if _, ok := o.dist[sd]; !ok {
		o.dist[sd], o.parent[sd] = o.g.FromDoorWithParents(sd)
	}
	return o.dist[sd], o.parent[sd]
}

func (o *fullRoutes) route(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) ([]indoor.DoorID, float64) {
	v := o.g.venue
	if pp == qp {
		return nil, v.IntraPointDist(pp, p, q)
	}
	bestDist := Unreachable
	var bestPath []indoor.DoorID
	for _, sd := range v.Partition(pp).Doors {
		off := v.PointDoorDist(pp, p, sd)
		dist, parent := o.fromDoor(sd)
		for _, td := range v.Partition(qp).Doors {
			total := off + dist[td] + v.PointDoorDist(qp, q, td)
			if total >= bestDist {
				continue
			}
			var rev []indoor.DoorID
			for d := td; d != -1; d = parent[d] {
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
	return bestPath, bestDist
}

// routePair is one located point pair.
type routePair struct {
	p, q   geom.Point
	pp, qp indoor.PartitionID
}

// routePairs draws n seeded point pairs, each point uniform in a uniformly
// drawn partition of any kind.
func routePairs(v *indoor.Venue, n int, seed int64) []routePair {
	rng := rand.New(rand.NewSource(seed))
	np := v.NumPartitions()
	out := make([]routePair, n)
	for i := range out {
		pp := indoor.PartitionID(rng.Intn(np))
		qp := indoor.PartitionID(rng.Intn(np))
		out[i] = routePair{
			p: v.RandomPointIn(pp, rng.Float64(), rng.Float64()), pp: pp,
			q: v.RandomPointIn(qp, rng.Float64(), rng.Float64()), qp: qp,
		}
	}
	return out
}

// pinVenues are the venues the route pin runs on: the four paper venues
// and two synthetic grids, one with inter-room doors (multi-door rooms)
// and one without.
func pinVenues(t *testing.T) map[string]*indoor.Venue {
	t.Helper()
	out := map[string]*indoor.Venue{
		"grid-4x3": testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3}),
		"grid-6x2-interroom": testvenue.Grid(testvenue.GridParams{
			Cols: 6, Levels: 2, InterRoomDoors: true,
		}),
	}
	for _, name := range venues.Names {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = v
	}
	return out
}

// TestPointRouteMatchesFullSearch pins the early-stop PointRoute to the
// full-search oracle: on every pin venue, 2000 seeded point pairs must give
// the same door sequence and the same distance bit pattern.
func TestPointRouteMatchesFullSearch(t *testing.T) {
	const pairs = 2000
	for name, v := range pinVenues(t) {
		t.Run(name, func(t *testing.T) {
			g := New(v)
			full := newFullRoutes(g)
			for i, pr := range routePairs(v, pairs, 17) {
				gotDoors, gotDist := g.PointRoute(pr.p, pr.pp, pr.q, pr.qp)
				wantDoors, wantDist := full.route(pr.p, pr.pp, pr.q, pr.qp)
				if !slices.Equal(gotDoors, wantDoors) || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
					t.Fatalf("pair %d (%d→%d): route %v dist %v, full search %v dist %v",
						i, pr.pp, pr.qp, gotDoors, gotDist, wantDoors, wantDist)
				}
			}
		})
	}
}

// TestPointRouteConcurrent runs PointRoute from several goroutines on two
// Graphs of different sizes at once (the pooled search scratch is shared
// by every Graph and must not leak between callers) and checks every answer
// against the same pairs routed serially. Run it under -race.
func TestPointRouteConcurrent(t *testing.T) {
	type route struct {
		doors []indoor.DoorID
		dist  float64
	}
	type job struct {
		g    *Graph
		prs  []routePair
		want []route
	}
	var jobs []job
	for _, name := range []string{"CPH", "MC"} {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		j := job{g: New(v), prs: routePairs(v, 300, 23)}
		for _, pr := range j.prs {
			doors, dist := j.g.PointRoute(pr.p, pr.pp, pr.q, pr.qp)
			j.want = append(j.want, route{doors, dist})
		}
		jobs = append(jobs, j)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers alternate graphs and start at different offsets, so
			// calls on both graphs overlap throughout.
			j := jobs[w%len(jobs)]
			for n := range j.prs {
				i := (n + w*len(j.prs)/workers) % len(j.prs)
				pr := j.prs[i]
				doors, dist := j.g.PointRoute(pr.p, pr.pp, pr.q, pr.qp)
				if !slices.Equal(doors, j.want[i].doors) || math.Float64bits(dist) != math.Float64bits(j.want[i].dist) {
					t.Errorf("worker %d pair %d: route %v dist %v, serial %v dist %v",
						w, i, doors, dist, j.want[i].doors, j.want[i].dist)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// routeWorkPin is TestRouteWorkDelta's snapshot: the doors PointRoute's
// searches settle over the 2000 seeded MC pairs of the route pin.
// Deterministic; after a deliberate change, replace it with the count the
// test logs under -v.
const routeWorkPin = 639572

// TestRouteWorkDelta guards the work of route planning, which the
// continuous engine pays for every walker that starts a trip: it fails if
// PointRoute settles more than 10% more doors than the snapshot over the
// MC pairs, the same rule the queue-pop and tick-work goldens apply.
func TestRouteWorkDelta(t *testing.T) {
	v, err := venues.ByName("MC")
	if err != nil {
		t.Fatal(err)
	}
	g := New(v)
	for _, pr := range routePairs(v, 2000, 17) {
		g.PointRoute(pr.p, pr.pp, pr.q, pr.qp)
	}
	n := g.settled.Load()
	t.Logf("settled_doors\t%d", n)
	switch {
	case float64(n) > routeWorkPin*1.10:
		t.Errorf("settled doors: %d, snapshot %d (+%.1f%% > 10%% tolerance)",
			n, routeWorkPin, 100*(float64(n)/routeWorkPin-1))
	case float64(n) < routeWorkPin*0.90:
		t.Logf("settled doors improved: %d vs snapshot %d; consider tightening the snapshot", n, routeWorkPin)
	}
}
