package mesh

// Mesh micro-benchmarks. BenchmarkGossipPublishSpread's op is a full
// epidemic spread of a single publish across an 8×8 member grid (rumor
// mongering only; anti-entropy is disabled so the relay/receive path
// dominates), so its allocs/op reads as the whole-overlay allocation
// cost of disseminating one payload. BenchmarkNetworkRefresh2k's op is
// one link-state refresh.

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

func BenchmarkGossipPublishSpread(b *testing.B) {
	eng, _, net := gridWorld(b, 7, 8, 8, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: -1})
	g.Start()
	// Warm the overlay so lazy setup (routing tables, member maps) is
	// outside the measured loop.
	if _, err := g.Publish(0, "cop", 64, "warm"); err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Publish(0, "cop", 64, "picture"); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkRefresh2k is one steady-state link-state refresh of
// the classic mission's world: 2,000 default-mix assets on 1,500 m open
// terrain with a central 0.9 jammer active (attack.Field's circle, which
// this package cannot import). The first refresh (in New) sizes the
// tables; every later one must allocate nothing. benchtab's
// mesh_refresh_2k runs the same body.
func BenchmarkNetworkRefresh2k(b *testing.B) {
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(1500, 1500)
	pop := asset.Generate(terr, asset.DefaultMix(2000), eng.Stream("gen"))
	net := New(eng, pop, terr, DefaultConfig())
	zone := geo.Circle{Center: terr.Bounds.Center(), Radius: 500}
	net.SetJamming(func(p geo.Point) float64 {
		if zone.Contains(p) {
			return 0.9
		}
		return 0
	})
	net.Refresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Refresh()
	}
}
