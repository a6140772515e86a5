package geo

// ShardMap partitions a bounded area into vertical bands of equal
// width, one per shard. It is the spatial key behind the sharded
// simulation core: an actor is owned by the shard whose band holds its
// position, and crossing a band boundary under mobility triggers a
// shard migration. Vertical bands suit the battlefield workloads here —
// radio traffic is dominated by short-range neighbor exchange, so most
// frames stay inside one band and the conservative window protocol only
// pays for the boundary crossings.
type ShardMap struct {
	bounds Rect
	shards int
	width  float64
}

// NewShardMap partitions bounds into shards vertical bands. A
// non-positive shard count gets one band.
func NewShardMap(bounds Rect, shards int) *ShardMap {
	if shards < 1 {
		shards = 1
	}
	w := bounds.Width() / float64(shards)
	if w <= 0 {
		w = 1
	}
	return &ShardMap{bounds: bounds, shards: shards, width: w}
}

// Shards returns the number of bands.
func (m *ShardMap) Shards() int { return m.shards }

// ShardOf returns the shard owning position p. Positions outside the
// bounds clamp to the nearest band, so every point maps somewhere.
func (m *ShardMap) ShardOf(p Point) int {
	i := int((p.X - m.bounds.Min.X) / m.width)
	if i < 0 {
		return 0
	}
	if i >= m.shards {
		return m.shards - 1
	}
	return i
}
