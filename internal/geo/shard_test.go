package geo

import (
	"math"
	"testing"
)

func TestShardMapPartition(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1200, 800}), 4)
	if m.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", m.Shards())
	}
	cases := []struct {
		p    Point
		want int
	}{
		{Point{0, 0}, 0},
		{Point{299, 799}, 0},
		{Point{300, 0}, 1},
		{Point{899, 400}, 2},
		{Point{1199, 0}, 3},
		{Point{-50, 0}, 0},    // clamped left
		{Point{5000, 0}, 3},   // clamped right
		{Point{1200, 400}, 3}, // boundary clamps into the last band
	}
	for _, tc := range cases {
		if got := m.ShardOf(tc.p); got != tc.want {
			t.Errorf("ShardOf(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestShardMapBandsTile(t *testing.T) {
	bounds := NewRect(Point{100, 0}, Point{1300, 900})
	m := NewShardMap(bounds, 5) // bands 240 wide
	// Bands tile the bounds: walking left to right visits every shard
	// in order, each owning one contiguous 240 m stretch over the full
	// height.
	prev := 0
	for x := bounds.Min.X; x <= bounds.Max.X; x += 10 {
		want := int((x - bounds.Min.X) / 240)
		if want > 4 {
			want = 4
		}
		for _, y := range []float64{bounds.Min.Y, 450, bounds.Max.Y} {
			if got := m.ShardOf(Point{x, y}); got != want {
				t.Fatalf("ShardOf(%v, %v) = %d, want %d", x, y, got, want)
			}
		}
		if want < prev || want > prev+1 {
			t.Fatalf("shard jumped from %d to %d at x=%v", prev, want, x)
		}
		prev = want
	}
	if prev != m.Shards()-1 {
		t.Fatalf("walk ended in shard %d, want %d", prev, m.Shards()-1)
	}
	// Every band's center maps back to its band.
	for i := 0; i < m.Shards(); i++ {
		c := Point{bounds.Min.X + (float64(i)+0.5)*240, 450}
		if got := m.ShardOf(c); got != i {
			t.Fatalf("ShardOf(center of band %d) = %d", i, got)
		}
	}
}

func TestShardMapCrossed(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4)
	if a, b := m.ShardOf(Point{100, 100}), m.ShardOf(Point{200, 900}); a != b || b != 0 {
		t.Fatalf("intra-band move changed shard: %d -> %d", a, b)
	}
	if a, b := m.ShardOf(Point{240, 100}), m.ShardOf(Point{260, 100}); a != 0 || b != 1 {
		t.Fatalf("boundary crossing missed: %d -> %d", a, b)
	}
}

// TestShardMapBandEdges pins seam ownership: a position exactly on an
// interior band boundary belongs to the band on its right (bands are
// left-inclusive), and the world's right edge clamps into the last
// band. Mobility puts assets exactly on these lines, and two shards
// both claiming (or both disclaiming) a seam asset would corrupt the
// migration protocol.
func TestShardMapBandEdges(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1200, 800}), 4) // width 300, exact in float64
	for i := 1; i < m.Shards(); i++ {
		seam := float64(i) * 300
		if got := m.ShardOf(Point{seam, 400}); got != i {
			t.Errorf("ShardOf(seam %v) = %d, want right band %d", seam, got, i)
		}
		if got := m.ShardOf(Point{math.Nextafter(seam, 0), 400}); got != i-1 {
			t.Errorf("ShardOf(just left of seam %v) = %d, want left band %d", seam, got, i-1)
		}
	}
	if got := m.ShardOf(Point{1200, 0}); got != 3 {
		t.Errorf("ShardOf(right edge) = %d, want last band 3", got)
	}
	if got := m.ShardOf(Point{0, 800}); got != 0 {
		t.Errorf("ShardOf(left edge) = %d, want 0", got)
	}
}

// TestShardMapZeroWidthWorld covers the degenerate geometry where the
// bounds have no horizontal extent (all assets on one vertical line):
// the map must still hand out valid shard indices rather than divide by
// zero, with the whole line owned by shard 0 and the tiling invariants
// intact.
func TestShardMapZeroWidthWorld(t *testing.T) {
	m := NewShardMap(NewRect(Point{500, 0}, Point{500, 800}), 4)
	if m.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", m.Shards())
	}
	for _, p := range []Point{{500, 0}, {500, 400}, {500, 800}, {499, 100}, {501, 100}, {5000, 0}} {
		got := m.ShardOf(p)
		if got < 0 || got >= m.Shards() {
			t.Fatalf("ShardOf(%v) = %d, outside [0,%d)", p, got, m.Shards())
		}
	}
	if got := m.ShardOf(Point{500, 400}); got != 0 {
		t.Errorf("ShardOf(on the line) = %d, want 0", got)
	}
	for _, y := range []float64{0, 800} {
		if got := m.ShardOf(Point{500, y}); got != 0 {
			t.Errorf("ShardOf(line end y=%v) = %d, want 0", y, got)
		}
	}
}

// TestShardMapCrossedOnSeam pins the mobility edge case of a step
// landing exactly on a band boundary: the move must change the owner
// exactly once, into the right-hand band, and a subsequent step that
// stays on the seam must not change it again.
func TestShardMapCrossedOnSeam(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4) // seams at 250, 500, 750
	steps := []struct {
		from, to Point
		want     int
		crossed  bool
	}{
		{Point{240, 100}, Point{250, 100}, 1, true},   // landing on seam 250
		{Point{250, 100}, Point{250, 900}, 1, false},  // sliding along seam 250
		{Point{250, 100}, Point{249, 100}, 0, true},   // stepping off seam 250 leftward
		{Point{990, 100}, Point{1000, 100}, 3, false}, // right edge clamps into 3
	}
	for _, st := range steps {
		a, b := m.ShardOf(st.from), m.ShardOf(st.to)
		if b != st.want || (a != b) != st.crossed {
			t.Errorf("%v -> %v: shard %d -> %d, want %d (crossed %v)", st.from, st.to, a, b, st.want, st.crossed)
		}
	}
}

func TestShardMapDegenerate(t *testing.T) {
	m := NewShardMap(Rect{}, 0)
	if m.Shards() != 1 {
		t.Fatalf("degenerate map shards = %d, want 1", m.Shards())
	}
	if got := m.ShardOf(Point{3, 4}); got != 0 {
		t.Fatalf("degenerate ShardOf = %d, want 0", got)
	}
}
