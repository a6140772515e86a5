package geo

import (
	"sort"
	"testing"
	"testing/quick"

	"iobt/internal/sim"
)

func newTestGrid() *Grid {
	return NewGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 50)
}

func TestGridInsertNear(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Insert(2, Point{110, 100})
	g.Insert(3, Point{500, 500})
	got := g.Near(nil, Point{100, 100}, 20)
	if len(got) != 2 {
		t.Fatalf("Near = %v, want ids 1,2", got)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridMove(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Move(1, Point{900, 900})
	if ids := g.Near(nil, Point{100, 100}, 50); len(ids) != 0 {
		t.Errorf("stale position found: %v", ids)
	}
	if ids := g.Near(nil, Point{900, 900}, 50); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("moved position not found: %v", ids)
	}
}

func TestGridMoveUnknownInserts(t *testing.T) {
	g := newTestGrid()
	g.Move(7, Point{10, 10})
	if g.Len() != 1 {
		t.Error("Move of unknown id should insert")
	}
}

func TestGridRemove(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Remove(1)
	g.Remove(1) // idempotent
	if g.Len() != 0 {
		t.Errorf("Len = %d after remove", g.Len())
	}
	if ids := g.Near(nil, Point{100, 100}, 10); len(ids) != 0 {
		t.Errorf("removed id still found: %v", ids)
	}
}

func TestGridInsertTwiceMoves(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Insert(1, Point{700, 700})
	if g.Len() != 1 {
		t.Fatalf("duplicate insert produced %d entries", g.Len())
	}
	if ids := g.Near(nil, Point{700, 700}, 10); len(ids) != 1 {
		t.Error("re-insert did not move")
	}
}

func TestGridEdgePositions(t *testing.T) {
	g := newTestGrid()
	// Corners and outside points must not panic and must be queryable.
	g.Insert(1, Point{0, 0})
	g.Insert(2, Point{1000, 1000}) // on max edge (clamped cell)
	g.Insert(3, Point{-50, 2000})  // outside; clamped
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if ids := g.Near(nil, Point{0, 0}, 1); len(ids) != 1 {
		t.Errorf("corner query = %v", ids)
	}
}

// Property: Near agrees with a brute-force scan.
func TestGridNearMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		g := newTestGrid()
		type entry struct {
			id int32
			p  Point
		}
		var all []entry
		for i := int32(0); i < 200; i++ {
			p := Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}
			g.Insert(i, p)
			all = append(all, entry{i, p})
		}
		center := Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}
		radius := rng.Uniform(0, 300)
		got := g.Near(nil, center, radius)
		var want []int32
		for _, e := range all {
			if e.p.Dist(center) <= radius {
				want = append(want, e.id)
			}
		}
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sortIDs(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func TestGridAccessorsAndDegenerate(t *testing.T) {
	g := newTestGrid()
	if g.Len() != 0 {
		t.Errorf("fresh grid Len = %d", g.Len())
	}
	// Degenerate bounds fall back to unit cells without panicking.
	d := NewGrid(Rect{}, 0)
	d.Insert(1, Point{})
	if got := d.Near(nil, Point{}, 1); len(got) != 1 {
		t.Errorf("degenerate grid Near = %v", got)
	}
	// Negative radius returns nothing.
	if got := g.Near(nil, Point{X: 1, Y: 1}, -5); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}
