package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"iobt/internal/cop"
	"iobt/internal/geo"
	"iobt/internal/mesh"
)

// benchShards is the shard count of both sharded workloads: one per
// core of the reference host.
const benchShards = 2

// ratioTolerance is the relative tolerance on ShardResult.DeliveryRatio
// between runs of one seed. The ratio is a float sum over a map, so its
// last digits depend on iteration order (see spec.json, known_defects).
const ratioTolerance = 1e-12

// copScenario is the iobtsim -shards COP scenario at 300 nodes over a
// 4 min horizon, with a 180 m radio range instead of the default 130 m.
// At 130 m a 300-node field sits at the connectivity threshold and the
// amount of gossip, so the run time, swings from 2.5 s to 5.4 s with
// the seed; at 180 m every field is connected and the scenario, not the
// seed, fixes the work (about 50,000 merges).
func copScenario() mesh.ShardScenario {
	return mesh.ShardScenario{Nodes: 300, Radio: 180, Horizon: 4 * time.Minute, AntiEntropyEvery: 15 * time.Second, TTL: 64}
}

// bareScenario is the E18-style payload-free gossip scenario, with the
// 180 m radio range of copScenario: at the default 130 m the run time
// swings from 2.3 s to 3.5 s with the seed, at 180 m by about 5%.
func bareScenario() mesh.ShardScenario {
	return mesh.ShardScenario{
		Nodes: 10000, Radio: 180, Publishers: 8, PublishEvery: 10 * time.Second, PublishUntil: 60 * time.Second,
		Horizon: 90 * time.Second, TTL: 512, MobilityEvery: 8 * time.Second,
	}
}

// Nominal wall times on the reference host; they only size repetition
// counts.
const (
	copNominal  = 5800 * time.Millisecond
	bareNominal = 4500 * time.Millisecond
)

// How many set-up probes (1 ns horizon) and first-second probes (1 s
// horizon) each sharded run times, about 1 s of each kind on the
// reference host.
const (
	copSetups  = 200
	copFirsts  = 40
	bareSetups = 10
	bareFirsts = 8
)

// firstProbe is the horizon of a first-event probe: publishes start at
// 1 s or later, so this is the set-up and the first simulated second of
// mobility and anti-entropy, the earliest point an untraced call can be
// seen to have run events.
const firstProbe = time.Second

// copNode is one node's COP replica plus its traced-pass counters. Only
// the shard that owns the node touches it.
type copNode struct {
	pic                     *cop.Picture
	encN, encBytes, encNs   uint64
	mergeN, mergeBytes, mNs uint64
	spans                   []span
}

// shardJob is one RunShardScenario call and what it produced. run is
// the part of wall after the first publish.
type shardJob struct {
	res         *mesh.ShardResult
	fingerprint uint64
	wall, run   time.Duration
	nodes       []copNode
}

// firstStamp records the wall time of its first mark; shards may mark
// it concurrently.
type firstStamp struct{ ns atomic.Int64 }

func (f *firstStamp) mark() {
	if f.ns.Load() == 0 {
		f.ns.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// until returns the time from the first mark to end (0 if never marked).
func (f *firstStamp) until(end time.Time) time.Duration {
	if ns := f.ns.Load(); ns != 0 {
		return end.Sub(time.Unix(0, ns))
	}
	return 0
}

// runCop runs the COP scenario with the iobtsim Payload and OnDeliver
// callbacks. When timed is set the callbacks also time each encode and
// merge and keep one span per call.
func runCop(seed int64, shards int, timed bool, t0 time.Time) (*shardJob, error) {
	sc := copScenario()
	nodes := make([]copNode, sc.Nodes)
	for i := range nodes {
		nodes[i].pic = cop.NewPicture(mesh.NodeID(i))
	}
	var first firstStamp
	sc.Payload = func(origin mesh.NodeID, seq uint64, at time.Duration) []byte {
		first.mark()
		n := &nodes[origin]
		var s time.Time
		if timed {
			s = time.Now()
		}
		n.pic.Cover(cop.Cell{X: int32(seq), Y: int32(origin)})
		n.pic.ObserveTrack(int(seq), cop.TrackFix{Pos: geo.Point{X: float64(origin), Y: float64(seq)}}, at)
		enc := n.pic.Encode()
		if timed {
			e := time.Now()
			n.encN++
			n.encBytes += uint64(len(enc))
			n.encNs += uint64(e.Sub(s))
			n.spans = append(n.spans, span{Name: "cop.Encode", Start: int64(s.Sub(t0)), End: int64(e.Sub(t0))})
		}
		return enc
	}
	sc.OnDeliver = func(node mesh.NodeID, key mesh.GossipKey, data []byte, at time.Duration) {
		n := &nodes[node]
		var s time.Time
		if timed {
			s = time.Now()
		}
		// A frame that fails to decode cannot regress the replica; the
		// overlay counts the delivery either way, as in iobtsim.
		_ = n.pic.MergeEncoded(data)
		if timed {
			e := time.Now()
			n.mergeN++
			n.mergeBytes += uint64(len(data))
			n.mNs += uint64(e.Sub(s))
			n.spans = append(n.spans, span{Name: "cop.MergeEncoded", Start: int64(s.Sub(t0)), End: int64(e.Sub(t0))})
		}
	}
	start := time.Now()
	res, err := mesh.RunShardScenario(seed, shards, sc)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	// The iobtsim -shards fingerprint: overlay digest and totals, then
	// every node's picture digest in ID order.
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%d|%d|%d|%d", res.Digest, res.Published, res.Delivered, res.Events, res.ClampedSends)
	for i := range nodes {
		fmt.Fprintf(h, "|%d:%x", i, nodes[i].pic.Digest())
	}
	return &shardJob{res: res, fingerprint: h.Sum64(), wall: end.Sub(start), run: first.until(end), nodes: nodes}, nil
}

// probeSamples times n runs of sc cut at horizon, without callbacks: a
// 1 ns horizon is the set-up alone (0 would mean the default horizon).
func probeSamples(seed int64, sc mesh.ShardScenario, horizon time.Duration, n int) ([]float64, error) {
	sc.Horizon = horizon
	sc.Payload, sc.OnDeliver = nil, nil
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := mesh.RunShardScenario(seed, benchShards, sc); err != nil {
			return nil, err
		}
		out = append(out, seconds(time.Since(t0)))
	}
	return out, nil
}

// shardSamples times the set-up and first-second probes of one
// repetition.
func shardSamples(seed int64, sc mesh.ShardScenario, setups, firsts int) (s, f []float64, err error) {
	if s, err = probeSamples(seed, sc, time.Nanosecond, setups); err != nil {
		return nil, nil, err
	}
	f, err = probeSamples(seed, sc, firstProbe, firsts)
	return s, f, err
}

// checkShard checks one shard result against the run's reference.
func checkShard(rep *report, what string, res, ref *mesh.ShardResult) {
	rep.check(len(res.Violations) == 0, "%s: %d conservation violations (first: %v)", what, len(res.Violations), res.Violations)
	if ref == nil {
		return
	}
	rep.check(res.Digest == ref.Digest, "%s: digest %016x != reference %016x", what, res.Digest, ref.Digest)
	rep.check(math.Abs(res.DeliveryRatio-ref.DeliveryRatio) <= ratioTolerance*math.Abs(ref.DeliveryRatio),
		"%s: delivery ratio %.17g differs from reference %.17g beyond %g", what, res.DeliveryRatio, ref.DeliveryRatio, ratioTolerance)
}

func runCopGossip(cfg config, rep *report) error {
	if cfg.trace {
		return traceCopGossip(cfg, rep)
	}
	// One warm-up set-up; the timed set-ups are spread between the
	// repetitions, so they sample the host across the run.
	reps := repsFor(cfg, copNominal, 2)
	if _, _, err := shardSamples(cfg.seed, copScenario(), 1, 1); err != nil {
		return err
	}
	var setups, firsts, runs, jobs []float64
	var first *shardJob
	for k := 0; k < reps; k++ {
		s, f, err := shardSamples(cfg.seed, copScenario(), ceilDiv(copSetups, reps), ceilDiv(copFirsts, reps))
		if err != nil {
			return err
		}
		setups, firsts = append(setups, s...), append(firsts, f...)
		r, err := runCop(cfg.seed, benchShards, false, time.Now())
		if err != nil {
			return err
		}
		runs, jobs = append(runs, seconds(r.run)), append(jobs, seconds(r.wall))
		what := fmt.Sprintf("cop-gossip rep %d", k)
		if first == nil {
			checkShard(rep, what, r.res, nil)
			first = r
		} else {
			checkShard(rep, what, r.res, first.res)
			rep.check(r.fingerprint == first.fingerprint, "%s: picture fingerprint %016x != rep 0 %016x", what, r.fingerprint, first.fingerprint)
		}
	}
	fmt.Printf("cop-gossip seed %d: fingerprint %016x, %d merges\n", cfg.seed, first.fingerprint, first.res.Delivered)
	jobMetrics(rep, setups, firsts, runs, jobs)
	return nil
}

// traceCopGossip runs the scenario untraced and traced, checks they
// agree, and reports the COP layer split.
func traceCopGossip(cfg config, rep *report) error {
	a0 := allocMB()
	plain, err := runCop(cfg.seed, benchShards, false, time.Now())
	if err != nil {
		return err
	}
	alloc := allocMB() - a0
	checkShard(rep, "cop-gossip untraced", plain.res, nil)

	sp := rep.spans
	run := fmt.Sprintf("cop-gossip/seed%d", cfg.seed)
	start := time.Now()
	root := sp.open(run, "mesh.RunShardScenario", 0, start)
	prof := startSampler(copFrames)
	traced, err := runCop(cfg.seed, benchShards, true, sp.t0)
	samples, inCop := prof.finish()
	if err != nil {
		return err
	}
	sp.close(root, time.Now())
	checkShard(rep, "cop-gossip traced", traced.res, plain.res)
	rep.check(traced.fingerprint == plain.fingerprint, "cop-gossip: traced fingerprint %016x != untraced %016x", traced.fingerprint, plain.fingerprint)

	var c copNode
	for i := range traced.nodes {
		n := &traced.nodes[i]
		c.encN += n.encN
		c.encBytes += n.encBytes
		c.encNs += n.encNs
		c.mergeN += n.mergeN
		c.mergeBytes += n.mergeBytes
		c.mNs += n.mNs
		for _, s := range n.spans {
			sp.add(run, s.Name, root, sp.t0.Add(time.Duration(s.Start)), sp.t0.Add(time.Duration(s.End)), 1)
		}
	}
	l := rep.layers
	l["cop.encode_s"] = float64(c.encNs) / 1e9
	l["cop.encode_n"] = float64(c.encN)
	l["cop.encode_bytes"] = float64(c.encBytes)
	l["cop.merge_s"] = float64(c.mNs) / 1e9
	l["cop.merge_n"] = float64(c.mergeN)
	l["cop.merge_bytes"] = float64(c.mergeBytes)
	l["cop.merge_share"] = l["cop.merge_s"] / (benchShards * seconds(traced.wall))
	l["alloc_mb"] = alloc
	l["trace.overhead"] = seconds(traced.wall) / seconds(plain.wall)
	putShardLayers(l, plain)
	fmt.Printf("cop-gossip seed %d: fingerprint %016x; merge share %.3f\n", cfg.seed, traced.fingerprint, l["cop.merge_share"])
	rep.check(l["cop.merge_share"] > 0.4, "cop-gossip attribution: cop.merge_share %.3f, want > 0.4", l["cop.merge_share"])
	// The sampler must see the COP layer here, or its silence on
	// dissemination-bare would prove nothing.
	fmt.Printf("cop-gossip stack samples: %d, %d in %s\n", samples, inCop[0], copFrames)
	rep.check(ratio(float64(inCop[0]), float64(samples)) > 0.2, "cop-gossip attribution: %d of %d stack samples in %s, want > 20%%", inCop[0], samples, copFrames)
	return nil
}

// Function-name prefixes the stack sampler watches for the attribution
// self-checks: the COP layer, mission-classic's eager link refresh, and
// a shard lane running a window.
const (
	copFrames     = "iobt/internal/cop."
	refreshFrames = "iobt/internal/mesh.(*Network).Refresh"
	shardedFrames = "iobt/internal/sim.(*Sharded).laneWindow"
)

// putShardLayers reports the overlay and engine counters of a run.
func putShardLayers(l map[string]float64, r *shardJob) {
	res := r.res
	l["sim.events"] = float64(res.Events)
	l["sim.events_per_s"] = float64(res.Events) / seconds(r.wall)
	l["sim.clamped_sends"] = float64(res.ClampedSends)
	l["mesh.relays"] = float64(res.Relays)
	l["mesh.repairs"] = float64(res.Repairs)
	l["mesh.delivered"] = float64(res.Delivered)
	l["mesh.dropped"] = float64(res.DroppedDead)
	l["mesh.useful_frac"] = ratio(float64(res.Delivered), float64(res.Delivered+res.Duplicates))
	l["delivery_ratio"] = res.DeliveryRatio
}

// bareCallbacks selects what bareRun installs: nothing, a Payload that
// only notes the first publish's wall time and returns no bytes (the
// run is then the payload-free one), or latency callbacks.
type bareCallbacks int

const (
	bareNone bareCallbacks = iota
	bareStamp
	bareLatencies
)

// bareRun runs the payload-free scenario. The latency callbacks carry
// each publish time in the payload and collect simulated
// publish-to-first-delivery latencies per node; the model never reads
// payload bytes, so the run is otherwise identical.
func bareRun(seed int64, shards int, cb bareCallbacks) (*shardJob, [][]float64, error) {
	sc := bareScenario()
	var perNode [][]float64
	var first firstStamp
	switch cb {
	case bareStamp:
		sc.Payload = func(mesh.NodeID, uint64, time.Duration) []byte {
			first.mark()
			return nil
		}
	case bareLatencies:
		perNode = make([][]float64, sc.Nodes)
		sc.Payload = func(origin mesh.NodeID, seq uint64, at time.Duration) []byte {
			return binary.BigEndian.AppendUint64(nil, uint64(at))
		}
		sc.OnDeliver = func(node mesh.NodeID, key mesh.GossipKey, data []byte, at time.Duration) {
			pub := time.Duration(binary.BigEndian.Uint64(data))
			perNode[node] = append(perNode[node], seconds(at-pub))
		}
	}
	start := time.Now()
	res, err := mesh.RunShardScenario(seed, shards, sc)
	if err != nil {
		return nil, nil, err
	}
	end := time.Now()
	return &shardJob{res: res, fingerprint: res.Digest, wall: end.Sub(start), run: first.until(end)}, perNode, nil
}

func runDissemination(cfg config, rep *report) error {
	if cfg.trace {
		return traceDissemination(cfg, rep)
	}
	reps := repsFor(cfg, bareNominal, 2)
	if _, _, err := shardSamples(cfg.seed, bareScenario(), 1, 1); err != nil {
		return err
	}
	var setups, firsts, runs, jobs []float64
	var first *mesh.ShardResult
	for k := 0; k < reps; k++ {
		s, f, err := shardSamples(cfg.seed, bareScenario(), ceilDiv(bareSetups, reps), ceilDiv(bareFirsts, reps))
		if err != nil {
			return err
		}
		setups, firsts = append(setups, s...), append(firsts, f...)
		r, _, err := bareRun(cfg.seed, benchShards, bareStamp)
		if err != nil {
			return err
		}
		runs, jobs = append(runs, seconds(r.run)), append(jobs, seconds(r.wall))
		checkShard(rep, fmt.Sprintf("dissemination-bare rep %d", k), r.res, first)
		if k == 0 {
			first = r.res
		}
	}
	fmt.Printf("dissemination-bare seed %d: digest %016x, %d events\n", cfg.seed, first.Digest, first.Events)
	jobMetrics(rep, setups, firsts, runs, jobs)
	return nil
}

// traceDissemination runs the scenario untraced, traced (one whole-run
// span plus latency callbacks), and at one shard for the speedup.
func traceDissemination(cfg config, rep *report) error {
	a0 := allocMB()
	plain, _, err := bareRun(cfg.seed, benchShards, bareNone)
	if err != nil {
		return err
	}
	alloc := allocMB() - a0
	checkShard(rep, "dissemination-bare untraced", plain.res, nil)

	sp := rep.spans
	run := fmt.Sprintf("dissemination-bare/seed%d", cfg.seed)
	start := time.Now()
	prof := startSampler(copFrames, refreshFrames, shardedFrames)
	traced, perNode, err := bareRun(cfg.seed, benchShards, bareLatencies)
	samples, in := prof.finish()
	if err != nil {
		return err
	}
	sp.add(run, "mesh.RunShardScenario", 0, start, time.Now(), int(traced.res.Events))
	checkShard(rep, "dissemination-bare traced", traced.res, plain.res)

	start = time.Now()
	one, _, err := bareRun(cfg.seed, 1, bareNone)
	if err != nil {
		return err
	}
	sp.add(run, "mesh.RunShardScenario/1-shard", 0, start, time.Now(), int(one.res.Events))
	checkShard(rep, "dissemination-bare 1-shard", one.res, plain.res)

	var lat []float64
	for _, v := range perNode {
		lat = append(lat, v...)
	}
	l := rep.layers
	putShardLayers(l, plain)
	l["alloc_mb"] = alloc
	l["sim.shard_speedup"] = seconds(one.wall) / seconds(plain.wall)
	l["mesh.delivery_latency_p50_s"] = quantile(lat, 0.5)
	l["mesh.delivery_latency_p90_s"] = quantile(lat, 0.9)
	l["trace.overhead"] = seconds(traced.wall) / seconds(plain.wall)
	rep.check(uint64(len(lat)) == traced.res.Delivered, "dissemination-bare: %d latency samples for %d deliveries", len(lat), traced.res.Delivered)
	fmt.Printf("dissemination-bare seed %d: digest %016x; speedup %.2f at %d shards\n", cfg.seed, plain.res.Digest, l["sim.shard_speedup"], benchShards)
	// The workload must bypass the COP and link-refresh layers, while the
	// sampler does see the sharded engine running.
	fmt.Printf("dissemination-bare stack samples: %d; %d in %s, %d in %s, %d in %s\n",
		samples, in[0], copFrames, in[1], refreshFrames, in[2], shardedFrames)
	rep.check(in[0] == 0, "dissemination-bare attribution: %d stack samples in %s, want 0", in[0], copFrames)
	rep.check(in[1] == 0, "dissemination-bare attribution: %d stack samples in %s, want 0", in[1], refreshFrames)
	rep.check(ratio(float64(in[2]), float64(samples)) > 0.3, "dissemination-bare attribution: %d of %d stack samples in %s, want > 30%%", in[2], samples, shardedFrames)
	return nil
}
