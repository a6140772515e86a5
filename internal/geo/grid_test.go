package geo

import (
	"slices"
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

// mapGrid is the spatial hash as it stood before positions moved into
// dense id-indexed storage: positions in a map keyed by id, cells
// holding bare ids. It is kept verbatim as the reference the dense grid
// must reproduce, Near order included, because the mesh's neighbor
// lists inherit that order.
type mapGrid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32
	where    map[int32]Point
}

func newMapGrid(bounds Rect, cellSize float64) *mapGrid {
	g := NewGrid(bounds, cellSize)
	return &mapGrid{bounds: g.bounds, cellSize: g.cellSize, cols: g.cols, rows: g.rows,
		cells: make([][]int32, g.cols*g.rows), where: make(map[int32]Point)}
}

func (g *mapGrid) cellOf(p Point) int {
	p = g.bounds.Clamp(p)
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

func (g *mapGrid) Insert(id int32, p Point) {
	if _, ok := g.where[id]; ok {
		g.Move(id, p)
		return
	}
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], id)
	g.where[id] = p
}

func (g *mapGrid) Remove(id int32) {
	p, ok := g.where[id]
	if !ok {
		return
	}
	c := g.cellOf(p)
	g.cells[c] = mapRemoveID(g.cells[c], id)
	delete(g.where, id)
}

func (g *mapGrid) Move(id int32, p Point) {
	old, ok := g.where[id]
	if !ok {
		g.Insert(id, p)
		return
	}
	oc, nc := g.cellOf(old), g.cellOf(p)
	if oc != nc {
		g.cells[oc] = mapRemoveID(g.cells[oc], id)
		g.cells[nc] = append(g.cells[nc], id)
	}
	g.where[id] = p
}

func (g *mapGrid) Near(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	minC := g.cellOf(Point{p.X - radius, p.Y - radius})
	maxC := g.cellOf(Point{p.X + radius, p.Y + radius})
	minCX, minCY := minC%g.cols, minC/g.cols
	maxCX, maxCY := maxC%g.cols, maxC/g.cols
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if g.where[id].Dist2(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func mapRemoveID(s []int32, id int32) []int32 {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// TestGridMatchesMapReference drives the dense grid and the map-keyed
// reference through the same seeded history of inserts, moves (within
// and across cells, and off the map), removes and re-inserts, and
// requires every Near query to return the same ids in the same order
// and Len to match the reference's entry count throughout.
func TestGridMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed)
		g, ref := newTestGrid(), newMapGrid(newTestGrid().bounds, 50)
		point := func() Point { return Point{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)} }
		var got, want []int32
		for step := 0; step < 3000; step++ {
			id := int32(rng.Intn(300))
			switch op := rng.Intn(10); {
			case op < 4:
				p := point()
				g.Insert(id, p)
				ref.Insert(id, p)
			case op < 7:
				// Small moves mostly stay in the cell; large ones cross.
				p := point()
				if q, ok := ref.where[id]; ok && rng.Bool(0.5) {
					p = Point{q.X + rng.Uniform(-10, 10), q.Y + rng.Uniform(-10, 10)}
				}
				g.Move(id, p)
				ref.Move(id, p)
			default:
				g.Remove(id)
				ref.Remove(id)
			}
			if g.Len() != len(ref.where) {
				t.Fatalf("seed %d step %d: Len = %d, reference holds %d", seed, step, g.Len(), len(ref.where))
			}
			if step%10 != 0 {
				continue
			}
			c, r := point(), rng.Uniform(0, 400)
			got, want = g.Near(got[:0], c, r), ref.Near(want[:0], c, r)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Near(%v, %.1f) = %v, reference %v", seed, step, c, r, got, want)
			}
		}
	}
}

// TestGridNegativeIDIgnored pins the dense grid's contract for negative
// ids (asset.None is -1): they are never indexed, so Insert and Move
// ignore them, Remove is a no-op, Len does not count them and Near
// never returns them — and the indexed ids around them are untouched.
func TestGridNegativeIDIgnored(t *testing.T) {
	g := newTestGrid()
	g.Insert(3, Point{100, 100})
	g.Insert(-1, Point{100, 100})
	g.Move(-1, Point{110, 100})
	g.Move(-7, Point{100, 110})
	if g.Len() != 1 {
		t.Fatalf("Len = %d after negative-id Insert/Move, want 1", g.Len())
	}
	if got := g.Near(nil, Point{100, 100}, 50); !slices.Equal(got, []int32{3}) {
		t.Fatalf("Near = %v, want [3]", got)
	}
	g.Remove(-1)
	g.Remove(-2)
	if g.Len() != 1 {
		t.Fatalf("Len = %d after negative-id Remove, want 1", g.Len())
	}
	g.Remove(3)
	if g.Len() != 0 || len(g.Near(nil, Point{100, 100}, 50)) != 0 {
		t.Fatalf("Len = %d, Near non-empty after removing the only id", g.Len())
	}
}

// TestGridLenExact walks one id through insert, in-cell and cross-cell
// moves, duplicate insert, remove, double remove and re-insert, and a
// second id whose swap-removal reorders a shared cell, checking Len at
// every step.
func TestGridLenExact(t *testing.T) {
	g := newTestGrid()
	steps := []struct {
		do   func()
		want int
	}{
		{func() { g.Insert(5, Point{10, 10}) }, 1},
		{func() { g.Move(5, Point{12, 12}) }, 1},  // same cell
		{func() { g.Move(5, Point{900, 10}) }, 1}, // across cells
		{func() { g.Insert(5, Point{10, 10}) }, 1},
		{func() { g.Insert(9, Point{11, 11}) }, 2},
		{func() { g.Insert(2, Point{13, 13}) }, 3},
		{func() { g.Remove(5) }, 2}, // swap-removes from the shared cell
		{func() { g.Remove(5) }, 2},
		{func() { g.Move(2, Point{14, 14}) }, 2}, // moved slot is still found
		{func() { g.Insert(5, Point{10, 10}) }, 3},
		{func() { g.Remove(9) }, 2},
		{func() { g.Remove(2) }, 1},
		{func() { g.Remove(5) }, 0},
		{func() { g.Move(40, Point{500, 500}) }, 1}, // grows storage
	}
	for i, s := range steps {
		s.do()
		if g.Len() != s.want {
			t.Fatalf("step %d: Len = %d, want %d", i, g.Len(), s.want)
		}
	}
	if got := g.Near(nil, Point{14, 14}, 100); len(got) != 0 {
		t.Errorf("Near after removing every cell-mate = %v", got)
	}
	if got := g.Near(nil, Point{500, 500}, 1); !slices.Equal(got, []int32{40}) {
		t.Errorf("Near(500,500) = %v, want [40]", got)
	}
}
