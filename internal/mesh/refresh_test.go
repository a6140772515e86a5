package mesh

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// The reference below is the link-state refresh as it stood before the
// dense rewrite — a map-keyed neighbor table, two jamAt calls per
// candidate pair and a Hypot test on every candidate — kept verbatim
// (as functions over the network instead of methods) so the rewrite
// can be held to byte-identical neighbor lists. Both read candidates
// through Population.Near; that the dense grid returns them in the old
// map-keyed grid's order is TestGridMatchesMapReference's job.

func refLinkRange(n *Network, a, b *asset.Asset) float64 {
	if a == nil || b == nil || !a.Alive() || !b.Alive() || !a.Online || !b.Online {
		return 0
	}
	r := a.Caps.RadioRange
	if b.Caps.RadioRange < r {
		r = b.Caps.RadioRange
	}
	pa, pb := a.Pos(), b.Pos()
	r *= n.terr.RangeFactor(pa, pb)
	jam := n.jamAt(pa)
	if j := n.jamAt(pb); j > jam {
		jam = j
	}
	r *= 1 - jam
	if r > 0 && n.linkFault != nil && n.linkFault(pa, pb) {
		return 0
	}
	return r
}

func refRefresh(n *Network) map[NodeID][]NodeID {
	neighbors := make(map[NodeID][]NodeID)
	var scratch []asset.ID
	for _, a := range n.pop.All() {
		if !a.Alive() || !a.Online {
			continue
		}
		scratch = scratch[:0]
		scratch = n.pop.Near(scratch, a.Pos(), a.Caps.RadioRange)
		var nbrs []NodeID
		for _, id := range scratch {
			if id == a.ID {
				continue
			}
			b := n.pop.Get(id)
			r := refLinkRange(n, a, b)
			if r > 0 && a.Pos().Dist(b.Pos()) <= r {
				nbrs = append(nbrs, id)
			}
		}
		if len(nbrs) > 0 {
			neighbors[a.ID] = nbrs
		}
	}
	return neighbors
}

func refNodes(neighbors map[NodeID][]NodeID) []NodeID {
	out := make([]NodeID, 0, len(neighbors))
	for id := range neighbors {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

func refComponent(neighbors map[NodeID][]NodeID, src NodeID) []NodeID {
	if _, ok := neighbors[src]; !ok {
		return []NodeID{src}
	}
	seen := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range neighbors[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

func refComponents(neighbors map[NodeID][]NodeID, minSize int) [][]NodeID {
	seen := make(map[NodeID]bool, len(neighbors))
	var comps [][]NodeID
	ids := refNodes(neighbors)
	for _, id := range ids {
		if seen[id] {
			continue
		}
		comp := refComponent(neighbors, id)
		for _, v := range comp {
			seen[v] = true
		}
		if len(comp) >= minSize {
			comps = append(comps, comp)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// checkAgainstReference compares the network's current table with the
// reference recomputed from the same world state.
func checkAgainstReference(t *testing.T, net *Network, pop *asset.Population, tag string) {
	t.Helper()
	want := refRefresh(net)
	for id := NodeID(0); int(id) < pop.Len(); id++ {
		if got := net.Neighbors(id); !slices.Equal(got, want[id]) {
			t.Fatalf("%s: Neighbors(%d) = %v, reference %v", tag, id, got, want[id])
		}
	}
	if got, w := net.Nodes(), refNodes(want); !slices.Equal(got, w) {
		t.Fatalf("%s: Nodes() = %v, reference %v", tag, got, w)
	}
	got, w := net.Components(1), refComponents(want, 1)
	if len(got) != len(w) {
		t.Fatalf("%s: %d components, reference %d", tag, len(got), len(w))
	}
	for i := range got {
		if !slices.Equal(got[i], w[i]) {
			t.Fatalf("%s: component %d = %v, reference %v", tag, i, got[i], w[i])
		}
	}
}

// TestRefreshMatchesReference runs seeded worlds of the full asset mix
// (radio ranges 60–600 m) on open and urban terrain through mobility,
// a jammer that switches on, a partition fault that cuts and heals,
// kills, revivals and radios going offline and back between refreshes,
// and requires every refresh to reproduce the reference: each neighbor
// list element by element and in order, Nodes() and Components(1).
func TestRefreshMatchesReference(t *testing.T) {
	terrains := []struct {
		name string
		terr func() *geo.Terrain
	}{
		{"open", func() *geo.Terrain { return geo.NewOpenTerrain(1000, 1000) }},
		{"urban", func() *geo.Terrain { return geo.NewUrbanTerrain(1000, 1000, 100) }},
	}
	for _, tc := range terrains {
		for seed := int64(1); seed <= 2; seed++ {
			eng := sim.NewEngine(seed)
			terr := tc.terr()
			pop := asset.Generate(terr, asset.DefaultMix(600), eng.Stream("gen"))
			net := New(eng, pop, terr, DefaultConfig())
			jamOn, cut := false, false
			zone := geo.Circle{Center: terr.Bounds.Center(), Radius: 300}
			net.SetJamming(func(p geo.Point) float64 {
				if jamOn && zone.Contains(p) {
					return 0.6
				}
				return 0
			})
			net.SetLinkFault(func(a, b geo.Point) bool {
				return cut && (a.X < 500) != (b.X < 500)
			})
			rng := sim.NewRNG(seed * 31)
			var offline []asset.ID
			for tick := 0; tick < 24; tick++ {
				pop.StepMobility(time.Second)
				switch tick {
				case 6:
					jamOn = true
				case 10:
					cut = true
				case 16:
					cut = false
				}
				// Kills swap-remove grid entries; revivals re-insert.
				for k := 0; k < 8; k++ {
					id := asset.ID(rng.Intn(pop.Len()))
					switch {
					case rng.Bool(0.25):
						pop.Revive(id)
					case rng.Bool(0.5):
						pop.Kill(id)
					default:
						pop.Get(id).Online = false
						offline = append(offline, id)
					}
				}
				if tick%5 == 4 {
					for _, id := range offline {
						if pop.Get(id).Alive() {
							pop.Get(id).Online = true
						}
					}
					offline = offline[:0]
				}
				net.Refresh()
				checkAgainstReference(t, net, pop, tc.name)
			}
		}
	}
}

// TestRefreshLinkRangeBoundary places peers at exactly their effective
// link range from a node at the origin, one float64 step either side on
// each axis, and around the edges of the squared-distance margin, along
// an axis and two diagonals, on open and urban terrain, with and
// without jamming and with the smaller radio on either end. Refresh
// must match the reference and list a peer exactly when the Hypot test
// (Linked) says so, except that a peer the spatial query at the node's
// own radio range leaves out by its squared test is not listed — as in
// the reference.
func TestRefreshLinkRangeBoundary(t *testing.T) {
	for _, urban := range []bool{false, true} {
		for _, jam := range []float64{0, 0.37} {
			for _, radios := range [][2]float64{{250, 250}, {250, 600}, {600, 173.3}} {
				terr := geo.NewOpenTerrain(2000, 2000)
				if urban {
					terr = geo.NewUrbanTerrain(2000, 2000, 100)
				}
				eng := sim.NewEngine(1)
				pop := asset.NewPopulation(terr)
				add := func(p geo.Point, radio float64) asset.ID {
					caps := asset.DefaultCaps(asset.ClassUAV)
					caps.RadioRange = radio
					a := &asset.Asset{Class: asset.ClassUAV, Caps: caps, Online: true, Mobility: &geo.Static{P: p}}
					a.Energy = caps.EnergyCap
					return pop.Add(a)
				}
				src := add(geo.Point{}, radios[0])
				net := New(eng, pop, terr, DefaultConfig())
				net.SetJamming(func(geo.Point) float64 { return jam })
				// The effective range of a peer at p, which on urban
				// terrain shrinks with distance: iterate to the point
				// where distance and range meet.
				rangeAt := func(p geo.Point) float64 {
					a := net.endOf(pop.Get(src))
					b := linkEnd{up: true, pos: p, radio: radios[1], jam: net.jamAt(p)}
					return net.rangeBetween(&a, &b)
				}
				for _, dir := range [][2]float64{{1, 0}, {0.6, 0.8}, {0.28, 0.96}} {
					d := radios[1]
					for k := 0; k < 60; k++ {
						d = rangeAt(geo.Point{X: dir[0] * d, Y: dir[1] * d})
					}
					dx := d * dir[0]
					dy := math.Sqrt(d*d - dx*dx)
					for _, y := range []float64{math.Nextafter(dy, 0), dy, math.Nextafter(dy, 1e9)} {
						for _, x := range []float64{math.Nextafter(dx, 0), dx, math.Nextafter(dx, 1e9)} {
							add(geo.Point{X: x, Y: y}, radios[1])
						}
					}
					for _, f := range []float64{1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1 + 5e-10, 1 + 1e-9, 1 + 2e-9} {
						add(geo.Point{X: dx * f, Y: dy * f}, radios[1])
					}
				}
				net.Refresh()
				checkAgainstReference(t, net, pop, "boundary")
				linked, unlinked := 0, 0
				for id := asset.ID(1); int(id) < pop.Len(); id++ {
					b := pop.Get(id)
					hypot := b.Pos().Dist(geo.Point{}) <= net.linkRange(pop.Get(src), b)
					if hypot != net.Linked(src, id) {
						t.Fatalf("Linked(%d,%d) = %v, Hypot test %v", src, id, !hypot, hypot)
					}
					// Candidates come from the spatial index's query at
					// the node's own radio range, whose squared test
					// (unchanged from the reference) can exclude a peer
					// Hypot puts exactly on that range.
					queried := b.Pos().Dist2(geo.Point{}) <= radios[0]*radios[0]
					if listed := slices.Contains(net.Neighbors(src), id); listed != (hypot && queried) {
						t.Fatalf("urban=%v jam=%v radios=%v: peer %d at %v listed=%v, Hypot test %v, queried %v",
							urban, jam, radios, id, b.Pos(), listed, hypot, queried)
					}
					if hypot && queried {
						linked++
					} else {
						unlinked++
					}
				}
				if linked == 0 || unlinked == 0 {
					t.Fatalf("urban=%v jam=%v radios=%v: sweep did not straddle the edge (%d linked, %d not)",
						urban, jam, radios, linked, unlinked)
				}
			}
		}
	}
}

// TestRefreshSteadyStateAllocs pins the zero-alloc contract of the
// //iobt:hot refresh: once the first refresh has sized the tables, a
// refresh of an unchanged world reuses every snapshot, query and
// neighbor buffer.
func TestRefreshSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.Generate(terr, asset.DefaultMix(500), eng.Stream("gen"))
	net := New(eng, pop, terr, DefaultConfig())
	net.SetJamming(func(p geo.Point) float64 {
		if p.X < 500 {
			return 0.5
		}
		return 0
	})
	net.Refresh()
	if allocs := testing.AllocsPerRun(10, net.Refresh); allocs != 0 {
		t.Errorf("steady-state Refresh allocates %.1f times per call, want 0", allocs)
	}
}
