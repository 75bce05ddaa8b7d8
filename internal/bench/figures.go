package bench

import (
	"fmt"
	"io"

	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/workload"
)

// Config selects the sweep sizes for the figure drivers. DefaultConfig
// reproduces the paper's Table 2 grid; Scaled shrinks the client counts for
// quick runs on small machines.
type Config struct {
	Venues        []string
	Categories    []string
	ClientSweep   []int
	ClientDefault int
	SigmaSweep    []float64
	SigmaDefault  float64
	// RealDefaultCategory is the category used where a figure needs one
	// real-setting configuration (Figure 6(i)); the paper's running
	// example uses dining & entertainment.
	RealDefaultCategory string
	Seed                int64
}

// DefaultConfig returns the paper's experiment grid.
func DefaultConfig() Config {
	return Config{
		Venues:              append([]string(nil), venues.Names...),
		Categories:          RealCategories(),
		ClientSweep:         append([]int(nil), ClientSweep...),
		ClientDefault:       ClientDefault,
		SigmaSweep:          append([]float64(nil), SigmaSweep...),
		SigmaDefault:        SigmaDefault,
		RealDefaultCategory: venues.CategoryDining,
		Seed:                1,
	}
}

// Scaled returns a copy with all client counts divided by f (minimum 10),
// for smoke-scale runs.
func (c Config) Scaled(f int) Config {
	if f <= 1 {
		return c
	}
	out := c
	out.ClientSweep = make([]int, len(c.ClientSweep))
	for i, n := range c.ClientSweep {
		out.ClientSweep[i] = maxInt(10, n/f)
	}
	out.ClientDefault = maxInt(10, c.ClientDefault/f)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pair runs both solvers on a cell.
func pair(r *Runner, c Cell) (eff, base Measurement, err error) {
	if eff, err = r.Run(c, Efficient); err != nil {
		return
	}
	base, err = r.Run(c, Baseline)
	return
}

func speedup(eff, base Measurement) float64 {
	if eff.MeanTime <= 0 {
		return 0
	}
	return float64(base.MeanTime) / float64(eff.MeanTime)
}

func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}

func writeRow(w io.Writer, label string, eff, base Measurement) {
	fmt.Fprintf(w, "%-12s %14s %14s %8.2fx %12.2f %12.2f %12.2f %12.2f\n",
		label, eff.MeanTime.Round(10_000), base.MeanTime.Round(10_000),
		speedup(eff, base), eff.MeanRetainedMB, base.MeanRetainedMB,
		eff.MeanAllocMB, base.MeanAllocMB)
}

func writeColumns(w io.Writer) {
	fmt.Fprintf(w, "%-12s %14s %14s %9s %12s %12s %12s %12s\n",
		"param", "eff-time", "base-time", "speedup", "eff-memMB", "base-memMB", "eff-allocMB", "base-allocMB")
}

// Fig5 regenerates Figure 5: effect of client size in the real setting, one
// panel per Melbourne Central category, time and memory. Results are
// printed as they are produced and also returned.
func Fig5(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	for _, cat := range cfg.Categories {
		writeHeader(w, fmt.Sprintf("Figure 5 (%s) — effect of |C|, MC real setting", cat))
		writeColumns(w)
		for _, nc := range cfg.ClientSweep {
			cell := Cell{
				Venue: "MC", Category: cat, Dist: workload.Uniform,
				NClients: nc, Seed: cfg.Seed,
			}
			eff, base, err := pair(r, cell)
			if err != nil {
				return out, err
			}
			out = append(out, eff, base)
			writeRow(w, fmt.Sprintf("|C|=%d", nc), eff, base)
		}
	}
	return out, nil
}

// Fig6 regenerates Figure 6: effect of the normal distribution's sigma —
// panel (i) is the MC real setting, panels (ii)-(v) are the synthetic
// setting on all four venues.
func Fig6(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	run := func(title string, mk func(sigma float64) Cell) error {
		writeHeader(w, title)
		writeColumns(w)
		for _, sigma := range cfg.SigmaSweep {
			eff, base, err := pair(r, mk(sigma))
			if err != nil {
				return err
			}
			out = append(out, eff, base)
			writeRow(w, fmt.Sprintf("sigma=%g", sigma), eff, base)
		}
		return nil
	}
	if err := run("Figure 6 (i) — effect of sigma, MC real setting", func(s float64) Cell {
		return Cell{Venue: "MC", Category: cfg.RealDefaultCategory, Dist: workload.Normal,
			Sigma: s, NClients: cfg.ClientDefault, Seed: cfg.Seed}
	}); err != nil {
		return out, err
	}
	for i, venue := range cfg.Venues {
		p := Table2[venue]
		title := fmt.Sprintf("Figure 6 (%s) — effect of sigma, %s synthetic", []string{"ii", "iii", "iv", "v"}[i%4], venue)
		venueName := venue
		if err := run(title, func(s float64) Cell {
			return Cell{Venue: venueName, Dist: workload.Normal, Sigma: s,
				NClients: cfg.ClientDefault, NExist: p.FeDefault, NCand: p.FnDefault, Seed: cfg.Seed}
		}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Fig7a regenerates Figures 7a and 8a: effect of client size in the
// synthetic setting (time and memory in one pass).
func Fig7a(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	for _, venue := range cfg.Venues {
		p := Table2[venue]
		writeHeader(w, fmt.Sprintf("Figure 7a/8a — effect of |C|, %s synthetic (|Fe|=%d |Fn|=%d)", venue, p.FeDefault, p.FnDefault))
		writeColumns(w)
		for _, nc := range cfg.ClientSweep {
			cell := Cell{Venue: venue, Dist: workload.Uniform, NClients: nc,
				NExist: p.FeDefault, NCand: p.FnDefault, Seed: cfg.Seed}
			eff, base, err := pair(r, cell)
			if err != nil {
				return out, err
			}
			out = append(out, eff, base)
			writeRow(w, fmt.Sprintf("|C|=%d", nc), eff, base)
		}
	}
	return out, nil
}

// Fig7b regenerates Figures 7b and 8b: effect of the existing facility set
// size.
func Fig7b(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	for _, venue := range cfg.Venues {
		p := Table2[venue]
		writeHeader(w, fmt.Sprintf("Figure 7b/8b — effect of |Fe|, %s synthetic (|C|=%d |Fn|=%d)", venue, cfg.ClientDefault, p.FnDefault))
		writeColumns(w)
		for _, fe := range p.FeSweep {
			cell := Cell{Venue: venue, Dist: workload.Uniform, NClients: cfg.ClientDefault,
				NExist: fe, NCand: p.FnDefault, Seed: cfg.Seed}
			eff, base, err := pair(r, cell)
			if err != nil {
				return out, err
			}
			out = append(out, eff, base)
			writeRow(w, fmt.Sprintf("|Fe|=%d", fe), eff, base)
		}
	}
	return out, nil
}

// Fig7c regenerates Figures 7c and 8c: effect of the candidate location set
// size.
func Fig7c(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	for _, venue := range cfg.Venues {
		p := Table2[venue]
		writeHeader(w, fmt.Sprintf("Figure 7c/8c — effect of |Fn|, %s synthetic (|C|=%d |Fe|=%d)", venue, cfg.ClientDefault, p.FeDefault))
		writeColumns(w)
		for _, fn := range p.FnSweep {
			cell := Cell{Venue: venue, Dist: workload.Uniform, NClients: cfg.ClientDefault,
				NExist: p.FeDefault, NCand: fn, Seed: cfg.Seed}
			eff, base, err := pair(r, cell)
			if err != nil {
				return out, err
			}
			out = append(out, eff, base)
			writeRow(w, fmt.Sprintf("|Fn|=%d", fn), eff, base)
		}
	}
	return out, nil
}

// Counters prints the work-counter comparison behind the paper's efficiency
// argument: exact indoor distance computations, index retrievals, and
// pruned clients per solver, at each venue's default synthetic parameters.
func Counters(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	var out []Measurement
	writeHeader(w, fmt.Sprintf("Work counters — synthetic defaults, |C|=%d", cfg.ClientDefault))
	fmt.Fprintf(w, "%-6s %-10s %14s %14s %12s %12s\n",
		"venue", "solver", "dist-calcs", "retrievals", "pruned", "considered")
	for _, venue := range cfg.Venues {
		p := Table2[venue]
		cell := Cell{Venue: venue, Dist: workload.Uniform, NClients: cfg.ClientDefault,
			NExist: p.FeDefault, NCand: p.FnDefault, Seed: cfg.Seed}
		for _, solver := range Solvers {
			m, err := r.Run(cell, solver)
			if err != nil {
				return out, err
			}
			out = append(out, m)
			q := m.Queries
			fmt.Fprintf(w, "%-6s %-10s %14d %14d %12d %12d\n",
				venue, solver, m.Stats.DistanceCalcs/q, m.Stats.Retrievals/q,
				m.Stats.PrunedClients/q, m.Stats.ConsideredClients/q)
		}
	}
	return out, nil
}

// Figures maps figure identifiers to their drivers.
var Figures = map[string]func(io.Writer, *Runner, Config) ([]Measurement, error){
	"5":         Fig5,
	"6":         Fig6,
	"7a":        Fig7a,
	"7b":        Fig7b,
	"7c":        Fig7c,
	"counters":  Counters,
	"parallel":  Parallel,
	"coldstart": ColdStart,
	"rushhour":  RushHour,
	"shape":     Shape,
}

// FigureOrder lists figure identifiers in paper order. Figures 8a-8c share
// the 7a-7c sweeps (memory columns); "counters" is this repository's
// addition, reporting the work quantities the paper's argument is about.
// "parallel" (sequential-vs-parallel speedups), "coldstart", "rushhour"
// and "shape" (index shape per venue) are runnable on demand but not part
// of the paper grid, so they are absent here.
var FigureOrder = []string{"5", "6", "7a", "7b", "7c", "counters"}
