package main

import (
	"fmt"
	"time"

	"iobt/internal/attack"
	"iobt/internal/core"
	"iobt/internal/geo"
	"iobt/internal/sim"
	"iobt/internal/track"
	"iobt/internal/verify"
)

// missionSpec is one mission on the sequential engine.
type missionSpec struct {
	seed       int64
	assets     int
	size       float64
	command    core.CommandModel
	levels     int
	reliable   bool
	checkpoint time.Duration
	coverage   float64
	rate       float64
	trustAudit bool
	jam        bool // central jammer from t=2min
	tracker    bool // tracker on the post, fed 3 targets/s by the driver
	horizon    time.Duration
}

// classicSpec is the mission-classic workload: the iobtsim pipeline at
// 2000 assets, hierarchy command over ARQ, 15 s checkpoints and a
// central jammer, for 5 simulated minutes.
func classicSpec(seed int64) missionSpec {
	return missionSpec{
		seed: seed, assets: 2000, size: 1500,
		command: core.CommandHierarchy, levels: 3, reliable: true,
		checkpoint: 15 * time.Second, coverage: 0.5, rate: 20,
		jam: true, tracker: true, horizon: 5 * time.Minute,
	}
}

// classicNominal is one classic mission's wall time on the reference
// host; it only sizes the repetition count.
const classicNominal = 11500 * time.Millisecond

// classicSetups is how many extra set-ups each run times, about 1.5 s
// of them on the reference host.
const classicSetups = 22

// mission is a built, started mission with its invariant registry armed.
type mission struct {
	spec missionSpec
	w    *core.World
	r    *core.Runtime
	reg  *verify.Registry
}

// setupTimes splits one mission set-up.
type setupTimes struct {
	newWorld, synthesize, total time.Duration
}

// setupMission builds the world, attaches the tracker, synthesizes and
// starts the mission, and arms the invariant registry at 1 s — the
// iobtsim order of calls. Spans go under parent when spans is non-nil.
func setupMission(spec missionSpec, spans *spanLog, run string, parent int) (*mission, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w := core.NewWorld(core.WorldConfig{Seed: spec.seed, Terrain: geo.NewOpenTerrain(spec.size, spec.size), Assets: spec.assets})
	t1 := time.Now()
	st.newWorld = t1.Sub(t0)
	spans.add(run, "core.NewWorld", parent, t0, t1, 1)

	pad := spec.size / 5
	m := core.DefaultMission(geo.NewRect(geo.Point{X: pad, Y: pad}, geo.Point{X: spec.size - pad, Y: spec.size - pad}))
	m.Goal.CoverageFrac = spec.coverage
	m.IncidentsPerMin = spec.rate
	if spec.levels > 0 {
		m.HierarchyLevels = spec.levels
	}
	m.Command = spec.command
	m.ReliableOrders = spec.reliable
	m.CheckpointEvery = spec.checkpoint
	m.TrustAudit = spec.trustAudit
	r := core.NewRuntime(w, m)
	if spec.tracker {
		tr := track.NewTracker(track.Config{})
		r.AttachTracker(tr)
		size := spec.size
		w.Eng.Every(time.Second, labelTargets, func() {
			ts := w.Eng.Now().Seconds()
			tr.Observe(w.Eng.Now(), []track.Detection{
				{Pos: geo.Point{X: size/6 + 3*ts, Y: size / 4}, Var: 9, Sensor: 1},
				{Pos: geo.Point{X: 3*size/4 - 2*ts, Y: size / 2}, Var: 9, Sensor: 2},
				{Pos: geo.Point{X: size / 2, Y: size/6 + 2.5*ts}, Var: 9, Sensor: 3},
			})
		})
	}

	t2 := time.Now()
	if err := r.Synthesize(); err != nil {
		w.Stop()
		return nil, st, fmt.Errorf("synthesis: %w", err)
	}
	t3 := time.Now()
	st.synthesize = t3.Sub(t2)
	spans.add(run, "compose.Synthesize", parent, t2, t3, 1)
	if err := r.Start(); err != nil {
		w.Stop()
		return nil, st, fmt.Errorf("start: %w", err)
	}
	t4 := time.Now()
	spans.add(run, "core.Start", parent, t3, t4, 1)

	reg := verify.NewRegistry()
	reg.Add(verify.MissionInvariants(w, r)...)
	reg.SetClock(w.Eng.Now)
	if spec.jam {
		w.Jam.Add(attack.Jammer{
			Area:      geo.Circle{Center: w.Terrain.Bounds.Center(), Radius: spec.size / 3},
			Intensity: 0.9,
			From:      2 * time.Minute,
		})
	}
	reg.Arm(w.Eng, time.Second)
	st.total = time.Since(t0)
	return &mission{spec: spec, w: w, r: r, reg: reg}, st, nil
}

// outcome is a finished mission's checked and witnessed results.
type outcome struct {
	fingerprint                 uint64
	violations                  int
	success                     float64
	delivered, dropped, noroute uint64
	checkpointBytes, events     uint64
}

// finish runs the final invariant sweep, stops the mission and world,
// and reads the results.
func (m *mission) finish() outcome {
	m.reg.CheckNow(m.w.Eng.Now())
	m.reg.Disarm()
	m.r.Stop()
	defer m.w.Stop()
	out := outcome{
		fingerprint: m.r.Metrics.Fingerprint(),
		violations:  len(m.reg.Violations()),
		success:     m.r.Metrics.SuccessRate(),
		delivered:   m.w.Net.Delivered.Value(),
		dropped:     m.w.Net.Dropped.Value(),
		noroute:     m.w.Net.NoRoute.Value(),
		events:      m.w.Eng.Processed(),
	}
	if c := m.r.Checkpoints(); c != nil {
		out.checkpointBytes = c.BytesTotal.Value()
	}
	return out
}

// Event label families the stepped run charges wall time to.
const (
	famRefresh = iota
	famHop
	famARQ
	famCheckpoint
	famVerify
	famTrack
	famCore
	famCount
)

var famNames = [famCount]string{"mesh.refresh", "mesh.hop", "mesh.arq", "checkpoint.tick", "verify.check", "track.observe", "core.event"}

const (
	labelTargets  = "bench.targets"
	labelSentinel = "bench.sentinel"
)

// family maps an event label to the layer it belongs to. Runtime
// events (core.*, monitor.*) and anything unlabelled by a layer count
// as core.
func family(label string) int {
	switch {
	case label == "mesh.refresh":
		return famRefresh
	case label == "mesh.hop":
		return famHop
	case len(label) >= 4 && label[:4] == "arq.":
		return famARQ
	case len(label) >= 11 && label[:11] == "checkpoint.":
		return famCheckpoint
	case len(label) >= 7 && label[:7] == "verify.":
		return famVerify
	case label == labelTargets:
		return famTrack
	default:
		return famCore
	}
}

// layerTimes is the stepped run's wall time and event count per family.
type layerTimes struct {
	wall [famCount]time.Duration
	n    [famCount]uint64
}

// runStepped drives the engine one event at a time up to the horizon,
// charging each step's wall time to the family of the event it ran. The
// loop ends at a sentinel scheduled 1 ns past the horizon, so the events
// due exactly at the horizon run, as they do under World.Run.
// Consecutive events of one family fold into one span.
func (m *mission) runStepped(spans *spanLog, run string, parent int) (layerTimes, time.Duration) {
	var lt layerTimes
	tr := sim.NewTracer(1)
	m.w.Eng.SetTracer(tr)
	defer m.w.Eng.SetTracer(nil)
	m.w.Eng.ScheduleAt(m.spec.horizon+time.Nanosecond, labelSentinel, func() {})
	last, lastSpan := -1, 0
	start := time.Now()
	for {
		t0 := time.Now()
		if !m.w.Eng.Step() {
			break
		}
		t1 := time.Now()
		label := tr.Entries()[0].Label
		if label == labelSentinel {
			break
		}
		f := family(label)
		lt.wall[f] += t1.Sub(t0)
		lt.n[f]++
		if f == last {
			spans.extend(lastSpan, t1)
		} else {
			lastSpan = spans.add(run, famNames[f], parent, t0, t1, 1)
			last = f
		}
	}
	return lt, time.Since(start)
}

func runClassic(cfg config, rep *report) error {
	spec := classicSpec(cfg.seed)
	if cfg.trace {
		return traceClassic(cfg, spec, rep)
	}
	// One warm-up set-up fills the heap. The timed set-ups are spread
	// between the repetitions, so they sample the host across the run.
	reps := repsFor(cfg, classicNominal, 2)
	if _, _, err := classicSetupSamples(spec, 1); err != nil {
		return err
	}
	var setups, firsts, runs, jobs []float64
	var ref outcome
	for k := 0; k < reps; k++ {
		s, f, err := classicSetupSamples(spec, ceilDiv(classicSetups, reps))
		if err != nil {
			return err
		}
		setups, firsts = append(setups, s...), append(firsts, f...)
		m, st, err := setupMission(spec, nil, "", 0)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(st.total))
		// The first event runs on its own so that its end can be timed;
		// the run then continues to the same horizon.
		t0 := time.Now()
		m.w.Eng.Step()
		firsts = append(firsts, seconds(st.total+time.Since(t0)))
		if err := m.w.Run(spec.horizon - m.w.Eng.Now()); err != nil {
			return err
		}
		d := time.Since(t0)
		out := m.finish()
		runs = append(runs, seconds(d))
		jobs = append(jobs, seconds(st.total+d))
		rep.check(out.violations == 0, "mission-classic rep %d: %d invariant violations", k, out.violations)
		if k == 0 {
			ref = out
		} else {
			rep.check(out.fingerprint == ref.fingerprint, "mission-classic rep %d: fingerprint %016x != rep 0 %016x", k, out.fingerprint, ref.fingerprint)
		}
	}
	fmt.Printf("mission-classic seed %d: fingerprint %016x, %d events, success %.3f\n", cfg.seed, ref.fingerprint, ref.events, ref.success)
	jobMetrics(rep, setups, firsts, runs, jobs)
	return nil
}

// classicSetupSamples times n mission set-ups and, for each, the time
// from the set-up's start to the end of the mission's first event, then
// stops the mission.
func classicSetupSamples(spec missionSpec, n int) (setups, firsts []float64, err error) {
	for i := 0; i < n; i++ {
		m, st, err := setupMission(spec, nil, "", 0)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		m.w.Eng.Step()
		firsts = append(firsts, seconds(st.total+time.Since(t0)))
		m.finish()
		setups = append(setups, seconds(st.total))
	}
	return setups, firsts, nil
}

// jobMetrics fills the end-to-end metrics of a workload whose unit of
// work is one simulation job (set-up, then the run to the horizon). All
// arguments are samples in seconds: set-ups, times from a job's start
// to its first observed event, runs after set-up, and whole jobs.
func jobMetrics(rep *report, setups, firsts, runs, jobs []float64) {
	e := rep.endToEnd
	e["setup_s"] = median(setups)
	e["run_s"] = median(runs)
	e["mission_latency_p50_s"] = median(jobs)
	e["mission_latency_p90_s"] = quantile(jobs, 0.9)
	e["first_event_p50_ms"] = 1000 * median(firsts)
	e["first_event_p90_ms"] = 1000 * quantile(firsts, 0.9)
}

// traceClassic makes one untraced and one traced mission of the same
// seed, checks they agree, and reports the per-layer split.
func traceClassic(cfg config, spec missionSpec, rep *report) error {
	// Untraced pass: the reference fingerprint and run_s.
	m, _, err := setupMission(spec, nil, "", 0)
	if err != nil {
		return err
	}
	a0 := allocMB()
	t0 := time.Now()
	if err := m.w.Run(spec.horizon); err != nil {
		return err
	}
	plain := time.Since(t0)
	alloc := allocMB() - a0
	ref := m.finish()
	rep.check(ref.violations == 0, "mission-classic untraced: %d invariant violations", ref.violations)

	// Traced pass.
	sp := rep.spans
	run := fmt.Sprintf("mission-classic/seed%d", cfg.seed)
	root := sp.open(run, "mission", 0, time.Now())
	setupSpan := sp.open(run, "setup", root, time.Now())
	m, st, err := setupMission(spec, sp, run, setupSpan)
	if err != nil {
		return err
	}
	sp.close(setupSpan, time.Now())
	runSpan := sp.open(run, "run", root, time.Now())
	lt, traced := m.runStepped(sp, run, runSpan)
	sp.close(runSpan, time.Now())
	out := m.finish()
	sp.close(root, time.Now())
	rep.check(out.violations == 0, "mission-classic traced: %d invariant violations", out.violations)
	rep.check(out.fingerprint == ref.fingerprint, "mission-classic: traced fingerprint %016x != untraced %016x", out.fingerprint, ref.fingerprint)

	l := rep.layers
	l["core.new_world_s"] = seconds(st.newWorld)
	l["compose.synthesize_s"] = seconds(st.synthesize)
	putLayerTimes(l, lt)
	l["mesh.delivered"] = float64(out.delivered)
	l["mesh.dropped"] = float64(out.dropped)
	l["mesh.noroute"] = float64(out.noroute)
	l["mesh.delivery_frac"] = ratio(float64(out.delivered), float64(out.delivered+out.dropped+out.noroute))
	l["checkpoint.bytes"] = float64(out.checkpointBytes)
	l["mission_success"] = out.success
	l["sim.events"] = float64(ref.events)
	l["sim.events_per_s"] = float64(ref.events) / seconds(plain)
	l["alloc_mb"] = alloc
	l["trace.overhead"] = seconds(traced) / seconds(plain)

	share := seconds(lt.wall[famRefresh]+lt.wall[famHop]) / seconds(traced)
	fmt.Printf("mission-classic seed %d: fingerprint %016x; refresh+hop share of traced run %.3f\n", cfg.seed, out.fingerprint, share)
	rep.check(share >= 0.9, "mission-classic attribution: mesh.refresh_s + mesh.hop_s is %.3f of traced run_s, want >= 0.9", share)
	return nil
}

// putLayerTimes reports a stepped run's per-family wall times and the
// refresh, hop and track event counts.
func putLayerTimes(l map[string]float64, lt layerTimes) {
	l["mesh.refresh_s"] = seconds(lt.wall[famRefresh])
	l["mesh.refresh_n"] = float64(lt.n[famRefresh])
	l["mesh.hop_s"] = seconds(lt.wall[famHop])
	l["mesh.hop_n"] = float64(lt.n[famHop])
	l["mesh.arq_s"] = seconds(lt.wall[famARQ])
	l["core.event_s"] = seconds(lt.wall[famCore])
	l["checkpoint.tick_s"] = seconds(lt.wall[famCheckpoint])
	l["verify.check_s"] = seconds(lt.wall[famVerify])
	l["track.observe_s"] = seconds(lt.wall[famTrack])
	l["track.observe_n"] = float64(lt.n[famTrack])
}
