package continuous

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// treeShapes are the index shapes the MC differential runs under: the
// default, the smallest and the largest fanouts, and the plain IP-tree
// (the same axis as internal/difftest's sweep).
var treeShapes = []struct {
	name string
	opts vip.Options
}{
	{"default", vip.DefaultOptions()},
	{"fanout-1", vip.Options{LeafFanout: 1, NodeFanout: 2, Vivid: true}},
	{"fanout-128", vip.Options{LeafFanout: 128, NodeFanout: 16, Vivid: true}},
	{"ip-tree", vip.Options{LeafFanout: 8, NodeFanout: 4, Vivid: false}},
}

// MC scenario shape: 300 walkers tick a minute at a time from 08:55 to
// 09:35 while two doors that can close together close in overlapping
// windows — door A 09:00–09:20, door B 09:10–09:30 — so the sweep crosses
// four transitions, one of them into an era with both doors shut.
const (
	mcWalkers    = 300
	mcTicks      = 40
	mcTick       = time.Minute
	mcClockStart = 8*time.Hour + 55*time.Minute
	// mcDwell keeps most of the crowd parked at any tick, so rows are
	// reused as well as resolved.
	mcDwell = 5 * time.Minute
)

// closablePair returns the first two doors of v, in ID order, that can be
// closed together without disconnecting the venue.
func closablePair(t testing.TB, v *indoor.Venue) [2]indoor.DoorID {
	t.Helper()
	closable := func(doors ...indoor.DoorID) bool {
		tt := temporal.NewTimetable(v)
		for _, d := range doors {
			if err := tt.SetDoor(d, temporal.Daily(h(10), h(9))); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := tt.Snapshot(h(9) + 30*time.Minute)
		return err == nil
	}
	var single []indoor.DoorID
	for d := 0; d < v.NumDoors(); d++ {
		if closable(indoor.DoorID(d)) {
			single = append(single, indoor.DoorID(d))
		}
	}
	for i, a := range single {
		for _, b := range single[i+1:] {
			if closable(a, b) {
				return [2]indoor.DoorID{a, b}
			}
		}
	}
	t.Fatalf("no two doors of %s can close together", v.Name)
	return [2]indoor.DoorID{}
}

// newMCRush assembles the MC scenario on a tree of the given shape: MC's
// Table-2 default facility sets (75 existing, 150 candidates), a seeded
// walker population and the two overlapping door closures.
func newMCRush(t testing.TB, opts vip.Options, seed int64) *rushHour {
	t.Helper()
	v := venues.MelbourneCentral()
	g := d2d.New(v)
	tree, err := vip.Build(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	pair := closablePair(t, v)
	tt := temporal.NewTimetable(v)
	if err := tt.SetDoor(pair[0], temporal.Daily(h(9)+20*time.Minute, h(9))); err != nil {
		t.Fatal(err)
	}
	if err := tt.SetDoor(pair[1], temporal.Daily(h(9)+30*time.Minute, h(9)+10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	fe, fn, err := workload.NewGenerator(v).Facilities(75, 150, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{
		Walkers: mcWalkers, Dwell: mcDwell, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rushHour{
		venue: v, graph: g, tree: tree, tt: tt, sim: sim,
		cfg: Config{
			Tree: tree, Sim: sim, Existing: fe, Candidates: fn,
			Timetable: tt, ClockStart: mcClockStart, TreeOptions: opts,
		},
	}
}

// TestDifferentialRushHourMC runs the MC scenario under every tree shape
// and requires every tick's maintained answer to equal a fresh core.Exec
// of the same snapshot on the engine's era tree. On MC, unlike the small
// grid, most candidates lie beyond a client's nearest existing facility,
// so the clipped rows and the nn bound in resolve are exercised hard.
func TestDifferentialRushHourMC(t *testing.T) {
	for _, shape := range treeShapes {
		t.Run(shape.name, func(t *testing.T) {
			rh := newMCRush(t, shape.opts, 5)
			eng, err := New(rh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := 1; i <= mcTicks; i++ {
				got, err := eng.Tick(mcTick)
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				want, err := core.Exec(ctx, eng.Tree(), eng.Query(), core.Options{})
				if err != nil {
					t.Fatalf("tick %d: Exec: %v", i, err)
				}
				requireSameResult(t, i, got, want.MinMax)
			}
			st := eng.Stats()
			t.Logf("transitions %d, resolved %d, reused %d, invalidated %d, answer changes %d",
				st.Transitions, st.Resolved, st.Reused, st.Invalidated, st.AnswerChanges)
			if st.Transitions < 2 {
				t.Errorf("sweep crossed %d transitions, want >= 2", st.Transitions)
			}
			if st.Resolved == 0 || st.Reused == 0 {
				t.Errorf("resolved %d, reused %d rows; want both > 0", st.Resolved, st.Reused)
			}
		})
	}
}

// tickWorkPins is TestTickWorkDelta's snapshot: the (door, facility) sums
// resolve evaluated over the MC scenario's steady ticks and over its
// transition ticks, at seed 5 and the default tree shape. Deterministic;
// after a deliberate change, replace the numbers with the ones the test
// logs under -v.
var tickWorkPins = []struct {
	key string
	n   int64
}{
	{"steady_tick_sums", 11724300},
	{"transition_tick_sums", 920100},
}

// TestTickWorkDelta guards the work of a tick's row resolve, the layer
// the continuous engine's profile names: it replays the MC scenario and
// fails if resolve evaluates more than 10% more (door, facility) sums than
// the snapshot, the same rule TestQueuePopsDelta applies to queue pops.
// Sums are exact and machine independent where timings are not.
func TestTickWorkDelta(t *testing.T) {
	rh := newMCRush(t, vip.DefaultOptions(), 5)
	eng, err := New(rh.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steady, transition int64
	for i := 1; i <= mcTicks; i++ {
		before, transitions := eng.sums, eng.stats.Transitions
		if _, err := eng.Tick(mcTick); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if eng.stats.Transitions > transitions {
			transition += eng.sums - before
		} else {
			steady += eng.sums - before
		}
	}
	got := map[string]int64{"steady_tick_sums": steady, "transition_tick_sums": transition}
	for _, pin := range tickWorkPins {
		n := got[pin.key]
		t.Logf("%s\t%d", pin.key, n)
		switch {
		case float64(n) > float64(pin.n)*1.10:
			t.Errorf("%s: %d, snapshot %d (+%.1f%% > 10%% tolerance)",
				pin.key, n, pin.n, 100*(float64(n)/float64(pin.n)-1))
		case float64(n) < float64(pin.n)*0.90:
			t.Logf("%s improved: %d vs snapshot %d; consider tightening the snapshot", pin.key, n, pin.n)
		}
	}
}
