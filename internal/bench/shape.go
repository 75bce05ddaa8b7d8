package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// TreeShape is the part of an index's shape that query cost follows: every
// access door of a node is one more row or column in the (min,+) products a
// traversal runs, and every extra leaf adds a level of them.
type TreeShape struct {
	Leaves         int
	MaxAccessDoors int
	// Cells is Tree.MemoryFootprint: the float64 cells of all matrices.
	Cells int
}

// ShapeOf measures t.
func ShapeOf(t *vip.Tree) TreeShape {
	s := TreeShape{Cells: t.MemoryFootprint()}
	for id := vip.NodeID(0); int(id) < t.NumNodes(); id++ {
		if t.IsLeaf(id) {
			s.Leaves++
		}
		if a := len(t.AccessDoors(id)); a > s.MaxAccessDoors {
			s.MaxAccessDoors = a
		}
	}
	return s
}

// shapeClients is the client count of the query cost column: small enough
// that the traversal, not client location, dominates.
const shapeClients = 100

// Shape prints each venue's index shape at the runner's options — leaves,
// height, the largest access-door set, matrix cells, the v2 and v3 file
// sizes and the build time — beside the mean efficient and baseline query
// time at |C|=100 with the Table 2 synthetic defaults.
func Shape(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	writeHeader(w, "Index shape — VIP-tree per venue, with query cost at |C|=100")
	fmt.Fprintf(w, "%-6s %6s %7s %6s %10s %10s %10s %10s %10s %12s %12s\n",
		"venue", "parts", "leaves", "height", "max-access", "cells", "v2-bytes", "v3-bytes", "build",
		"eff-time", "base-time")
	for _, name := range cfg.Venues {
		v, err := r.Venue(name)
		if err != nil {
			return out, err
		}
		start := time.Now()
		tree, err := vip.Build(v, r.options())
		if err != nil {
			return out, err
		}
		build := time.Since(start)
		var v2, v3 byteCounter
		if err := tree.Save(&v2); err != nil {
			return out, err
		}
		if err := tree.SavePaged(&v3, vip.PagedSaveOptions{}); err != nil {
			return out, err
		}
		p := Table2[name]
		cell := Cell{Venue: name, Dist: workload.Uniform, NClients: shapeClients,
			NExist: p.FeDefault, NCand: p.FnDefault, Seed: cfg.Seed}
		eff, base, err := pair(r, cell)
		if err != nil {
			return out, err
		}
		out = append(out, eff, base)
		s := ShapeOf(tree)
		fmt.Fprintf(w, "%-6s %6d %7d %6d %10d %10d %10d %10d %10s %12s %12s\n",
			name, v.NumPartitions(), s.Leaves, tree.Height(), s.MaxAccessDoors, s.Cells, v2.n, v3.n,
			build.Round(time.Millisecond), eff.MeanTime.Round(10_000), base.MeanTime.Round(10_000))
	}
	return out, nil
}

// byteCounter is an io.Writer that only counts, for file sizes without
// files.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
