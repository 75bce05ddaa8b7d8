// Package d2d implements the door-to-door graph of the indoor
// distance-aware model (Lu, Cao, Jensen — ICDE'12): vertices are doors and
// an edge joins two doors that border a common partition, weighted by the
// intra-partition travel distance. Dijkstra over this graph yields exact
// indoor shortest distances. In the paper's structure this is the iDist
// ground truth of Section 2 that every reported distance reduces to.
//
// The package serves two roles in this repository: it is the ground-truth
// oracle that the VIP-tree distance computations are tested against (and
// that SolveBrute in internal/core evaluates objectives on), and it is the
// machinery that populates the VIP-tree distance matrices at index
// construction time — parallel Build in internal/vip runs many concurrent
// FromDoor Dijkstras against one shared Graph.
//
// Concurrency: a *Graph is immutable after New (apart from an atomic work
// counter) and safe for unlimited concurrent use. Every method owns its
// working state (distance arrays, priority queue) for the length of the
// call: FromDoor, Path and the point distances allocate it, since their
// results escape; PointRoute borrows it from a package sync.Pool and hands
// it back before returning. Any mix of calls may run in parallel.
package d2d
