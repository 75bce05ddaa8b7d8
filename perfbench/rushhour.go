package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	ifls "github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/bench"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/vip"
)

// The rushhour workload: a standing MinMax query on MC, maintained by
// Index.NewContinuous while about 2000 walkers move and staggered door
// schedules force a topology-era rebuild every 20 ticks.
const (
	rushVenue   = "MC"
	rushWalkers = 2000
	rushDwell   = 5 * time.Minute
	rushTick    = 30 * time.Second
	// rushSlot is the spacing of the door slots: slot j's door is closed
	// for 1.5 slots from rushFirstClose + j*rushSlot, so a transition (a
	// door closing or reopening) falls every half slot, at least one door
	// is always closed and every transition rebuilds the era tree.
	rushSlot       = 20 * time.Minute
	rushFirstClose = 9 * time.Hour
	rushClockStart = rushFirstClose - rushSlot/2
	// rushSlots door windows cover 14 simulated hours: the last one
	// opens rushSlots-1 slots after the first and closes 1.5 slots later,
	// at rushScheduleEnd.
	rushSlots       = 42
	rushScheduleEnd = rushFirstClose + rushSlots*rushSlot + rushSlot/2
	// A run makes rushTicksPerSecond ticks per second of --seconds (about
	// what the engine ticked per second when the benchmark was defined),
	// and at least rushMinTicks, so every commit replays the same ticks
	// and at least rushMinTransitions transitions.
	rushTicksPerSecond = 22
	rushMinTicks       = 240
	rushMinTransitions = 10
	rushLedgerTicks    = 50
)

type rushEnv struct {
	ix    *ifls.Index
	tt    *ifls.Timetable
	eng   *ifls.ContinuousEngine
	slots int
	simCf ifls.SimulationConfig
}

// rushSetup indexes MC, staggers the door schedules, and starts the
// engine over a seeded walker population.
func rushSetup(seed int64) func() (*rushEnv, error) {
	return func() (*rushEnv, error) {
		v, err := ifls.SampleVenue(rushVenue)
		if err != nil {
			return nil, err
		}
		ix, err := ifls.NewIndex(v)
		if err != nil {
			return nil, err
		}
		env := &rushEnv{ix: ix, tt: ix.NewTimetable()}
		if env.slots, err = staggerDoors(env.tt, v); err != nil {
			return nil, err
		}
		p := bench.Table2[rushVenue]
		fe, fn, err := ifls.NewWorkloadGenerator(v).Facilities(p.FeDefault, p.FnDefault, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		env.simCf = ifls.SimulationConfig{Walkers: rushWalkers, Dwell: rushDwell, Seed: seed}
		sim, err := ix.NewSimulation(env.simCf)
		if err != nil {
			return nil, err
		}
		env.eng, err = ix.NewContinuous(ifls.ContinuousConfig{
			Sim: sim, Existing: fe, Candidates: fn, Timetable: env.tt, ClockStart: rushClockStart,
		})
		return env, err
	}
}

// staggerDoors closes doors in staggered windows: slot j's door is closed
// for 1.5 slots from rushFirstClose + j*rushSlot. MC has few doors that are
// not bridges, so the slots alternate between the first two doors (in ID
// order) that can be closed together without disconnecting the venue;
// consecutive windows of one door never overlap. It returns the number of
// slots.
func staggerDoors(tt *ifls.Timetable, v *ifls.Venue) (int, error) {
	closable := func(doors ...ifls.DoorID) (bool, error) {
		for _, d := range doors {
			if err := tt.SetDoor(d, ifls.Daily(rushFirstClose+time.Minute, rushFirstClose)); err != nil {
				return false, err
			}
		}
		_, _, err := tt.Snapshot(rushFirstClose)
		for _, d := range doors {
			if err := tt.SetDoor(d, ifls.Schedule{}); err != nil {
				return false, err
			}
		}
		return err == nil, nil
	}
	var single []ifls.DoorID
	for d := 0; d < v.NumDoors(); d++ {
		ok, err := closable(ifls.DoorID(d))
		if err != nil {
			return 0, err
		}
		if ok {
			single = append(single, ifls.DoorID(d))
		}
	}
	for i, a := range single {
		for _, b := range single[i+1:] {
			ok, err := closable(a, b)
			if err != nil {
				return 0, err
			}
			if ok {
				return rushSlots, scheduleSlots(tt, [2]ifls.DoorID{a, b})
			}
		}
	}
	return 0, fmt.Errorf("no two doors of %s can close together", v.Name)
}

// scheduleSlots gives the pair's doors their alternating closed windows.
// A schedule lists open intervals, so each door is open from the end of
// one of its windows to the start of its next, and overnight from its
// last window to its first.
func scheduleSlots(tt *ifls.Timetable, pair [2]ifls.DoorID) error {
	for k, d := range pair {
		var open []temporal.Interval
		first := rushFirstClose + time.Duration(k)*rushSlot
		for at := first; ; at += 2 * rushSlot {
			next := at + 2*rushSlot
			reopen := at + rushSlot*3/2
			if next >= rushFirstClose+time.Duration(rushSlots)*rushSlot {
				open = append(open, temporal.Interval{Open: reopen, Close: first})
				break
			}
			open = append(open, temporal.Interval{Open: reopen, Close: next})
		}
		if err := tt.SetDoor(d, ifls.Schedule{Intervals: open}); err != nil {
			return err
		}
	}
	return nil
}

type tickStats struct {
	dur, cpu   time.Duration
	transition bool
}

type rushRun struct {
	ticks   []tickStats
	checked int
	failed  int
	ledger  ifls.ContinuousStats
	// traced run only
	stepMS, resolveMS, snapshotMS, eraBuildMS []float64
}

// rushTickCount is the number of ticks a run of the window makes. It fails
// when the ticks would run past the door schedules, where no transition
// falls.
func rushTickCount(window time.Duration) (int, error) {
	n := max(int(math.Round(window.Seconds()*rushTicksPerSecond)), rushMinTicks)
	if end := rushClockStart + time.Duration(n)*rushTick; end > rushScheduleEnd {
		return 0, fmt.Errorf("%d ticks end at %v, after the last door window ends at %v", n, end, rushScheduleEnd)
	}
	return n, nil
}

// rushTicks makes the run's fixed number of ticks. Transition ticks
// and the last tick are checked against a fresh core.Exec outside the
// timed window. With a tracer, a twin simulation is stepped beside each
// tick, and each transition's snapshot and era tree are rebuilt and timed
// apart from the tick.
func rushTicks(cfg config, env *rushEnv, tr *tracer) (*rushRun, error) {
	n, err := rushTickCount(cfg.window)
	if err != nil {
		return nil, err
	}
	run := &rushRun{}
	var twin *ifls.Simulation
	if tr != nil {
		if twin, err = env.ix.NewSimulation(env.simCf); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	check := func(got core.Result) error {
		want, err := core.Exec(ctx, env.eng.Tree(), env.eng.Query(), core.Options{})
		if err != nil {
			return err
		}
		if cfg.injectWrong && run.checked == 0 {
			want.MinMax.Answer = -2
		}
		run.checked++
		if !sameMinMax(got, want.MinMax) {
			run.failed++
		}
		return nil
	}
	heapMB()
	transitions := int64(0)
	var last core.Result
	for len(run.ticks) < n {
		rid := tr.request()
		var step time.Duration
		if twin != nil {
			start := time.Now()
			twin.Step(rushTick)
			end := time.Now()
			tr.record("motion.step", 0, rid, start, end)
			step = end.Sub(start)
			run.stepMS = append(run.stepMS, ms(step))
		}
		cpu0 := cpuTime()
		start := time.Now()
		got, err := env.eng.Tick(rushTick)
		end := time.Now()
		cpu := cpuTime() - cpu0
		tr.record("continuous.tick", 0, rid, start, end)
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", len(run.ticks)+1, err)
		}
		d := end.Sub(start)
		last = got
		st := env.eng.Stats()
		ts := tickStats{dur: d, cpu: cpu, transition: st.Transitions > transitions}
		transitions = st.Transitions
		run.ticks = append(run.ticks, ts)
		if len(run.ticks) == rushLedgerTicks {
			run.ledger = st
		}
		if twin != nil && !ts.transition {
			run.resolveMS = append(run.resolveMS, ms(d-step))
		}
		if ts.transition {
			if tr != nil {
				if err := rushEra(env, tr, rid, run); err != nil {
					return nil, err
				}
			}
			if err := check(got); err != nil {
				return nil, err
			}
		}
	}
	if transitions < rushMinTransitions {
		return nil, fmt.Errorf("%d ticks crossed %d door transitions, want at least %d", n, transitions, rushMinTransitions)
	}
	if !run.ticks[len(run.ticks)-1].transition {
		if err := check(last); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// rushEra rebuilds the current era's snapshot and tree apart from the
// tick, timing each step.
func rushEra(env *rushEnv, tr *tracer, rid int64, run *rushRun) error {
	start := time.Now()
	snap, _, err := env.tt.Snapshot(env.eng.Clock())
	if err != nil {
		return err
	}
	mid := time.Now()
	if _, err := vip.Build(snap, vip.DefaultOptions()); err != nil {
		return err
	}
	end := time.Now()
	tr.record("temporal.snapshot", 0, rid, start, mid)
	tr.record("vip.build", 0, rid, mid, end)
	run.snapshotMS = append(run.snapshotMS, ms(mid.Sub(start)))
	run.eraBuildMS = append(run.eraBuildMS, ms(end.Sub(mid)))
	return nil
}

func sameMinMax(a, b core.Result) bool {
	if a.Found != b.Found || a.Answer != b.Answer {
		return false
	}
	return a.Objective == b.Objective || math.IsNaN(a.Objective) && math.IsNaN(b.Objective)
}

type rushSummary struct {
	tickP50, tail, transP50, tps float64
	cpuTick, cpuTrans            float64
	pct, steady, trans           int
}

func summarizeTicks(ticks []tickStats) rushSummary {
	var steady, trans, all, cpuSteady, cpuTrans []float64
	var total time.Duration
	for _, t := range ticks {
		all = append(all, ms(t.dur))
		total += t.dur
		if t.transition {
			trans = append(trans, ms(t.dur))
			cpuTrans = append(cpuTrans, ms(t.cpu))
		} else {
			steady = append(steady, ms(t.dur))
			cpuSteady = append(cpuSteady, ms(t.cpu))
		}
	}
	s := rushSummary{tickP50: median(steady), transP50: median(trans), steady: len(steady), trans: len(trans)}
	s.cpuTick, s.cpuTrans = median(cpuSteady), median(cpuTrans)
	s.pct, s.tail = tail(all)
	s.tps = frac(float64(len(ticks)), total.Seconds())
	return s
}

func runRushHour(cfg config) (*result, error) {
	env, setup, err := timedSetup(rushSetup(cfg.seed))
	if err != nil {
		return nil, err
	}
	base := env.eng.Tree()
	run, err := rushTicks(cfg, env, nil)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	s := summarizeTicks(run.ticks)
	res := newResult()
	res.metrics["op_cpu_ms"] = s.cpuTick
	res.metrics["slow_op_cpu_ms"] = s.cpuTrans
	res.metrics["heap_mb"] = heap
	res.name("tick_p50_ms", s.tickP50, "ms", fmt.Sprintf("ticks without a transition, n=%d", s.steady))
	res.name("tick_tail_ms", s.tail, "ms", fmt.Sprintf("p%d over all ticks, n=%d", s.pct, len(run.ticks)))
	res.name("transition_p50_ms", s.transP50, "ms", fmt.Sprintf("ticks crossing a door transition, n=%d", s.trans))
	res.name("ticks_per_s", s.tps, "1/s", "ticks per second of tick time")
	res.name("tick_cpu_ms", s.cpuTick, "ms", "median process CPU time of a tick without a transition")
	res.name("transition_cpu_ms", s.cpuTrans, "ms", "median process CPU time of a transition tick")
	res.nameSetup(setup)
	res.name("heap_mb", heap, "MB", "live heap after the run, after a GC")
	res.sample("ticks", len(run.ticks))
	res.sample("transition_ticks", s.trans)
	res.sample("door_slots", env.slots)
	res.sample("checked_ticks", run.checked)
	res.count("continuous.ticks", run.ledger.Ticks)
	res.count("continuous.transitions", run.ledger.Transitions)
	res.count("continuous.resolved", run.ledger.Resolved)
	res.count("continuous.reused", run.ledger.Reused)
	res.count("continuous.invalidated", run.ledger.Invalidated)
	vipShape(res, rushVenue, base)
	res.attempted = len(run.ticks) + run.checked
	res.failed = run.failed

	if cfg.trace {
		// A fresh engine, so the traced window sees the same ticks.
		tenv, err := rushSetup(cfg.seed)()
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		trun, err := rushTicks(cfg, tenv, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += len(trun.ticks) + trun.checked
		res.failed += trun.failed
		ts := summarizeTicks(trun.ticks)
		st := tenv.eng.Stats()
		m := res.layer
		m["obs.trace_overhead_frac"] = frac(ts.tickP50-s.tickP50, s.tickP50)
		m["continuous.resolved_per_tick"] = frac(float64(st.Resolved), float64(st.Ticks))
		m["continuous.reused_frac"] = frac(float64(st.Reused), float64(st.Resolved+st.Reused))
		m["continuous.invalidated_per_transition"] = frac(float64(st.Invalidated), float64(st.Transitions))
		m["continuous.answer_changes"] = float64(st.AnswerChanges)
		m["continuous.resolve_ms_p50"] = median(trun.resolveMS)
		m["motion.step_ms_p50"] = median(trun.stepMS)
		m["temporal.snapshot_ms_p50"] = median(trun.snapshotMS)
		m["vip.era_build_ms_p50"] = median(trun.eraBuildMS)
		if err := writeSpans(cfg, tr, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
