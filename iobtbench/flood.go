package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"iobt/internal/core"
	"iobt/internal/service"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

// The service-flood workload: an open-loop generator submits small
// .scn missions to one service at a fixed rate, and each mission is
// timed from when it was due to when it reached a terminal state.
const (
	// floodRate is the arrival rate in missions/s, under a fifth of the
	// 2-worker capacity measured on the reference host (~22/s), so that
	// few arrivals wait for a worker. At half capacity the p90 latencies
	// fell in the queue and every slowdown of the shared host lengthened
	// it: over 10 seeds the p90 first-event latency spread 1.09 of its
	// median, against under 0.1 at this rate.
	floodRate = 4
	// floodMin is the least number of missions in one flood.
	floodMin = 100
	// floodPoll is how often the watcher looks for terminal missions.
	floodPoll = time.Millisecond
	// floodSetupBatches samples of floodSetupBatch service start-ups
	// each give setup_s; a sample's start-ups are made in groups of
	// floodSetupGroup, each group closed untimed before the next, so
	// few services are alive at once. One sample lasts milliseconds.
	floodSetupBatches = 24
	floodSetupBatch   = 2000
	floodSetupGroup   = 100
	// floodBurst is how many missions the traced run submits at once
	// after its floods, more than the 2 workers and the queue of 8 hold,
	// so that admission rejects some and they are re-sent.
	floodBurst = 16
	// floodProfiles is how many of the flood's missions the traced run
	// also steps outside the service for the per-layer split.
	floodProfiles = 4
)

// floodConfig is the service under test: 2 workers, a queue of 8, and
// chaos crashing 40% of missions once, mid-flight.
func floodConfig() service.Config {
	return service.Config{Workers: 2, QueueDepth: 8, Chaos: service.ChaosConfig{CrashProb: 0.4}}
}

// floodInput is the generated flood: each mission's scenario and the
// offset from the flood's start at which it is due.
type floodInput struct {
	scenarios []verify.Scenario
	sources   []string
	due       []time.Duration
}

// makeFlood derives n missions and their arrival schedule from the
// seed: 150 assets on 600 m open terrain for 60 s, alternating intent
// and hierarchy command, ARQ on every fourth. Exactly one mission
// arrives in each 1/floodRate slot, at a seeded point within it.
func makeFlood(seed int64, n int) floodInput {
	rng := sim.NewRNG(seed).Derive("iobtbench/service-flood")
	in := floodInput{}
	slot := time.Second / floodRate
	for i := 0; i < n; i++ {
		sc := verify.Scenario{
			Seed: rng.Int63(), Assets: 150, Size: 600, Terrain: "open",
			Command: "intent", Rate: 10, Horizon: 60 * time.Second,
		}
		if i%2 == 1 {
			sc.Command = "hierarchy"
			sc.Reliable = i%4 == 1
		}
		in.scenarios = append(in.scenarios, sc)
		in.sources = append(in.sources, sc.String())
		in.due = append(in.due, time.Duration(i)*slot+time.Duration(rng.Float64()*float64(slot)))
	}
	return in
}

// floodResult is one flood's measurements. busy is the summed time
// from each mission's first event to its terminal state: the workers'
// share of the flood's wall time.
type floodResult struct {
	busy       time.Duration
	latency    []float64 // due to terminal, s
	firstEvent []float64 // ms
	submitUs   []float64
	lagMs      []float64
	retries    int
	missions   []*service.Mission
	tel        service.Telemetry
	alloc      float64
}

// send is one pending submission: mission i, to be sent at at.
type send struct {
	i  int
	at time.Time
}

// flood pushes the input through a fresh service. The calling goroutine
// submits on schedule, re-queuing a 429 after its RetryAfter; one
// watcher goroutine stamps each mission's terminal time.
func flood(in floodInput, spans *spanLog, run string) (*floodResult, error) {
	n := len(in.scenarios)
	res := &floodResult{missions: make([]*service.Mission, n), latency: make([]float64, n)}
	a0 := allocMB()
	svc := service.New(floodConfig())
	defer svc.Close()

	start := time.Now()
	due := make([]time.Time, n)
	queue := make([]send, n)
	for i := range due {
		due[i] = start.Add(in.due[i])
		queue[i] = send{i: i, at: due[i]}
	}

	// Sized to n: the submitter never blocks on the watcher.
	admitted := make(chan int, n)
	finished := make([]time.Time, n)
	watchDone, stop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchDone)
		var watching []int
		for left := n; left > 0; {
			select {
			case <-stop:
				return
			default:
			}
			for drained := false; !drained; {
				select {
				case i := <-admitted:
					watching = append(watching, i)
				default:
					drained = true
				}
			}
			now := time.Now()
			kept := watching[:0]
			for _, i := range watching {
				if res.missions[i].State().Terminal() {
					finished[i] = now
					left--
				} else {
					kept = append(kept, i)
				}
			}
			watching = kept
			time.Sleep(floodPoll)
		}
	}()

	missionSpan := make([]int, n)
	submitted := make([]time.Time, n)
	var submitErr error
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if d := time.Until(s.at); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		res.lagMs = append(res.lagMs, float64(t0.Sub(s.at))/float64(time.Millisecond))
		m, err := svc.Submit(in.sources[s.i])
		t1 := time.Now()
		res.submitUs = append(res.submitUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		if spans != nil {
			id := fmt.Sprintf("%s/%d", run, s.i)
			if missionSpan[s.i] == 0 {
				missionSpan[s.i] = spans.open(id, "service.mission", 0, due[s.i])
			}
			spans.add(id, "service.Submit", missionSpan[s.i], t0, t1, 1)
		}
		var qf *service.QueueFullError
		switch {
		case err == nil:
			res.missions[s.i] = m
			submitted[s.i] = t0
			admitted <- s.i
		case errors.As(err, &qf):
			res.retries++
			queue = append(queue, send{i: s.i, at: t1.Add(qf.RetryAfter)})
			sort.SliceStable(queue, func(a, b int) bool { return queue[a].at.Before(queue[b].at) })
		default:
			submitErr = fmt.Errorf("submit mission %d: %w", s.i, err)
		}
		if submitErr != nil {
			break
		}
	}
	if submitErr != nil {
		close(stop)
		<-watchDone
		return nil, submitErr
	}
	<-watchDone

	for i, f := range finished {
		res.latency[i] = seconds(f.Sub(due[i]))
		spans.close(missionSpan[i], f)
		if d := res.missions[i].FirstEventLatency(); d > 0 {
			res.firstEvent = append(res.firstEvent, float64(d)/float64(time.Millisecond))
			res.busy += f.Sub(submitted[i].Add(d))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res.tel = svc.Telemetry()
	res.alloc = allocMB() - a0
	return res, nil
}

// checkFlood checks every mission completed cleanly and every mission
// that crashed and recovered matches a chaos-free run of its scenario,
// made after the timed flood.
func checkFlood(rep *report, what string, res *floodResult) error {
	var crashed []*service.Mission
	for _, m := range res.missions {
		rep.check(m.State() == service.StateCompleted && len(m.Violations()) == 0,
			"%s %s: state %s, %d violations (%s)", what, m.ID, m.State(), len(m.Violations()), m.Reason())
		if m.Restarts() > 0 {
			crashed = append(crashed, m)
		}
	}
	ref := service.New(service.Config{Workers: 2, QueueDepth: len(crashed) + 1})
	defer ref.Close()
	refs := make([]*service.Mission, len(crashed))
	for i, m := range crashed {
		r, err := ref.SubmitScenario(m.Scenario)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		refs[i] = r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := ref.Drain(ctx); err != nil {
		return fmt.Errorf("reference drain: %w", err)
	}
	for i, m := range crashed {
		rep.check(refs[i].State() == service.StateCompleted && m.Fingerprint() == refs[i].Fingerprint(),
			"%s %s: recovered fingerprint %016x != chaos-free %016x (%s)", what, m.ID, m.Fingerprint(), refs[i].Fingerprint(), refs[i].State())
	}
	fmt.Printf("%s: %d missions, %d crashed and recovered, %d retries\n", what, len(res.missions), len(crashed), res.retries)
	return nil
}

// floodSetupSamples times service start-up. One sample is the mean
// service.New time over a batch of services, since a single start-up
// takes about two microseconds; the services are closed outside the
// timing.
func floodSetupSamples(batches int) []float64 {
	var out []float64
	svcs := make([]*service.Service, floodSetupGroup)
	for b := 0; b < batches; b++ {
		var d time.Duration
		for g := 0; g < floodSetupBatch/floodSetupGroup; g++ {
			t0 := time.Now()
			for i := range svcs {
				svcs[i] = service.New(floodConfig())
			}
			d += time.Since(t0)
			for _, s := range svcs {
				s.Close()
			}
		}
		out = append(out, seconds(d)/floodSetupBatch)
	}
	return out
}

func runServiceFlood(cfg config, rep *report) error {
	if cfg.trace {
		return traceServiceFlood(cfg, rep)
	}
	n := int(floodRate * float64(cfg.seconds))
	if n < floodMin {
		n = floodMin
	}
	in := makeFlood(cfg.seed, n)
	// One warm-up batch; the timed batches sit before and after the
	// flood, so they sample the host at both ends of the run.
	floodSetupSamples(1)
	setups := floodSetupSamples(floodSetupBatches / 2)
	res, err := flood(in, nil, "")
	if err != nil {
		return err
	}
	rep.endToEnd["peak_rss_mb"] = peakRSSMB()
	setups = append(setups, floodSetupSamples(floodSetupBatches-floodSetupBatches/2)...)
	if err := checkFlood(rep, "service-flood", res); err != nil {
		return err
	}
	e := rep.endToEnd
	e["setup_s"] = median(setups)
	e["run_s"] = seconds(res.busy) / float64(floodConfig().Workers)
	e["mission_latency_p50_s"] = median(res.latency)
	e["mission_latency_p90_s"] = quantile(res.latency, 0.9)
	e["first_event_p50_ms"] = median(res.firstEvent)
	e["first_event_p90_ms"] = quantile(res.firstEvent, 0.9)
	return nil
}

// traceServiceFlood floods untraced and traced, then steps a few of the
// flood's missions outside the service for the per-layer split.
func traceServiceFlood(cfg config, rep *report) error {
	in := makeFlood(cfg.seed, floodMin)
	plain, err := flood(in, nil, "")
	if err != nil {
		return err
	}
	if err := checkFlood(rep, "service-flood untraced", plain); err != nil {
		return err
	}
	run := fmt.Sprintf("service-flood/seed%d", cfg.seed)
	traced, err := flood(in, rep.spans, run)
	if err != nil {
		return err
	}
	if err := checkFlood(rep, "service-flood traced", traced); err != nil {
		return err
	}
	for i, m := range traced.missions {
		rep.check(m.Fingerprint() == plain.missions[i].Fingerprint(), "service-flood mission %d: traced fingerprint %016x != untraced %016x",
			i, m.Fingerprint(), plain.missions[i].Fingerprint())
	}

	// The open-loop rate never fills the queue, so a burst exercises
	// admission's 429 and the generator's re-send after RetryAfter.
	bin := makeFlood(cfg.seed+1, floodBurst)
	for i := range bin.due {
		bin.due[i] = 0
	}
	burst, err := flood(bin, rep.spans, run+"/burst")
	if err != nil {
		return err
	}
	if err := checkFlood(rep, "service-flood burst", burst); err != nil {
		return err
	}
	rep.check(burst.tel.RejectedFull > 0, "service-flood burst: no submission was rejected")

	var recovery []float64
	for _, m := range traced.missions {
		recovery = append(recovery, m.RecoveryTimes()...)
	}
	l := rep.layers
	l["service.submit_p50_us"] = median(traced.submitUs)
	l["service.rejected"] = float64(traced.tel.RejectedFull + burst.tel.RejectedFull)
	l["service.retries"] = float64(traced.retries + burst.retries)
	l["service.recovery_p50_ms"] = median(recovery)
	l["service.crashes"] = float64(traced.tel.Crashes)
	l["service.restarts"] = float64(traced.tel.Restarts)
	l["checkpoint.persisted"] = float64(traced.tel.Checkpoints)
	l["checkpoint.bytes"] = float64(traced.tel.CheckpointBytes)
	l["gen.lag_p90_ms"] = quantile(traced.lagMs, 0.9)
	l["alloc_mb"] = plain.alloc
	l["trace.overhead"] = seconds(traced.busy) / seconds(plain.busy)
	return profileFlood(in, traced, rep, run)
}

// profileFlood steps the flood's first missions on their own, as the
// service's runner builds them, and reports the per-mission mean of
// each layer. Each must reproduce the fingerprint the service reported.
func profileFlood(in floodInput, traced *floodResult, rep *report, run string) error {
	var newWorld, synth time.Duration
	var sum layerTimes
	for i := 0; i < floodProfiles; i++ {
		sc := in.scenarios[i]
		spec := missionSpec{
			seed: sc.Seed, assets: sc.Assets, size: sc.Size, command: core.CommandIntent,
			reliable: sc.Reliable, checkpoint: 10 * time.Second, coverage: 0.4, rate: sc.Rate,
			trustAudit: true, horizon: sc.Horizon,
		}
		if sc.Command == "hierarchy" {
			spec.command = core.CommandHierarchy
		}
		prun := fmt.Sprintf("%s/profile%d", run, i)
		root := rep.spans.open(prun, "mission", 0, time.Now())
		m, st, err := setupMission(spec, rep.spans, prun, root)
		if err != nil {
			return err
		}
		lt, _ := m.runStepped(rep.spans, prun, root)
		out := m.finish()
		rep.spans.close(root, time.Now())
		want := traced.missions[i].Fingerprint()
		rep.check(out.fingerprint == want, "service-flood profile %d: fingerprint %016x != service's %016x", i, out.fingerprint, want)
		newWorld += st.newWorld
		synth += st.synthesize
		for f := range sum.wall {
			sum.wall[f] += lt.wall[f]
			sum.n[f] += lt.n[f]
		}
	}
	for f := range sum.wall {
		sum.wall[f] /= floodProfiles
		sum.n[f] /= floodProfiles
	}
	l := rep.layers
	l["core.new_world_s"] = seconds(newWorld) / floodProfiles
	l["compose.synthesize_s"] = seconds(synth) / floodProfiles
	putLayerTimes(l, sum)
	return nil
}
