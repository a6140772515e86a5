package geo

import "math"

// Grid is a uniform spatial hash over a bounded area: O(1) insert/move
// and neighborhood queries that only touch nearby cells. It is the index
// used for radio-range neighbor discovery over thousands of nodes.
//
// Ids index dense per-id storage, so memory grows with the largest id
// inserted; callers use small non-negative ids (asset IDs, node
// indices). A negative id — asset.None, say — is never indexed: Insert
// and Move ignore it, Remove of it is a no-op, and Near never returns
// it.
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]gridEntry // cell -> entries, so Near scans positions in order
	cell     []int32       // id -> cell index, or -1 when id is not indexed
	slot     []int32       // id -> index of its entry within its cell
	n        int
}

// A gridEntry is one indexed id and its position.
type gridEntry struct {
	id int32
	p  Point
}

// NewGrid returns a grid over bounds with the given cell size. A
// non-positive cell size defaults to 1/32 of the larger dimension.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = math.Max(bounds.Width(), bounds.Height()) / 32
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]gridEntry, cols*rows),
	}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

func (g *Grid) cellOf(p Point) int {
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

// Insert adds id at position p. Inserting an existing id moves it; a
// negative id is ignored.
func (g *Grid) Insert(id int32, p Point) { g.Move(id, p) }

// Remove deletes id from the index. Removing an unknown or negative id
// is a no-op.
func (g *Grid) Remove(id int32) {
	if id < 0 || int(id) >= len(g.cell) || g.cell[id] < 0 {
		return
	}
	g.cut(id)
	g.cell[id] = -1
	g.n--
}

// Move updates id's position. Unknown ids are inserted; a negative id
// is ignored.
func (g *Grid) Move(id int32, p Point) {
	if id < 0 {
		return
	}
	for int(id) >= len(g.cell) {
		g.cell = append(g.cell, -1)
		g.slot = append(g.slot, 0)
	}
	c := g.cellOf(p)
	switch {
	case g.cell[id] < 0:
		g.add(id, c, p)
		g.n++
	case int(g.cell[id]) != c:
		g.cut(id)
		g.add(id, c, p)
	default:
		g.cells[c][g.slot[id]].p = p
	}
}

// add appends id's entry to cell c.
func (g *Grid) add(id int32, c int, p Point) {
	g.cell[id] = int32(c)
	g.slot[id] = int32(len(g.cells[c]))
	g.cells[c] = append(g.cells[c], gridEntry{id: id, p: p})
}

// cut swap-removes id's entry from its cell, moving the cell's last
// entry into the hole.
func (g *Grid) cut(id int32) {
	c, i := g.cell[id], g.slot[id]
	s := g.cells[c]
	last := s[len(s)-1]
	s[i] = last
	g.slot[last.id] = i
	g.cells[c] = s[:len(s)-1]
}

// Near appends to dst all ids within radius of p (excluding none) and
// returns the extended slice. Results are in arbitrary but deterministic
// order for a fixed insertion history.
//
//iobt:hot
func (g *Grid) Near(dst []int32, p Point, radius float64) []int32 {
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
			for _, e := range g.cells[cy*g.cols+cx] {
				if e.p.Dist2(p) <= r2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}
