// Package mesh simulates the wireless network that connects IoBT assets:
// range- and terrain-dependent links, topology dynamics under mobility
// and churn, jamming, per-hop loss and latency, bandwidth queueing, and
// multi-hop routing.
//
// The paper (§II) requires forward-deployed networks of disadvantaged
// assets with "limitations on energy, power, storage, and bandwidth" and
// no fixed infrastructure; mesh is that substrate.
package mesh

import (
	"fmt"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// NodeID aliases asset.ID: network endpoints are assets.
type NodeID = asset.ID

// Config parameterizes the radio and protocol model.
type Config struct {
	// NeighborRefresh is the cadence of topology recomputation (and
	// mobility stepping if StepMobility is set). Zero defaults to 1s.
	NeighborRefresh time.Duration
	// StepMobility makes the network advance asset mobility on each
	// refresh tick.
	StepMobility bool
	// DrainIdle makes the refresh tick also charge idle energy (scaled
	// by duty cycle), so battery-limited assets die over mission time.
	DrainIdle bool
	// BaseLatency is per-hop propagation plus processing delay.
	BaseLatency time.Duration
	// LossBase is the per-hop loss probability at the edge of radio
	// range (loss falls off quadratically closer in).
	LossBase float64
	// EnergyPerByte is the transmission energy cost in joules/byte.
	EnergyPerByte float64
	// QueueDrain controls bandwidth queueing: a node's backlog drains at
	// its Bandwidth (kb/s) and adds backlog/bandwidth delay to each hop.
	QueueDrain bool
	// MaxHops bounds route length; zero defaults to 64.
	MaxHops int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		NeighborRefresh: time.Second,
		StepMobility:    true,
		BaseLatency:     5 * time.Millisecond,
		LossBase:        0.1,
		EnergyPerByte:   1e-6,
		QueueDrain:      true,
		MaxHops:         64,
	}
}

// Message is a unit of application data routed over the mesh.
type Message struct {
	From, To NodeID
	// Size is the payload size in bytes (affects queueing and energy).
	Size float64
	// Kind tags the message for handlers ("report", "cmd", "grad", ...).
	Kind string
	// Payload carries arbitrary application data.
	Payload any
	// Hops counts traversed links; filled in at delivery.
	Hops int
	// Sent is the virtual send time; filled in by Send.
	Sent time.Duration
	// Corrupted marks a frame mangled in flight by an injected fault;
	// its kind and payload are destroyed before delivery.
	Corrupted bool
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// Network is the simulated mesh.
type Network struct {
	eng  *sim.Engine
	pop  *asset.Population
	terr *geo.Terrain
	cfg  Config
	rng  *sim.RNG

	// neighbors[id] is id's neighbor list, rewritten in place by each
	// Refresh; ends and near are Refresh's per-node and query scratch.
	neighbors [][]NodeID
	ends      []linkEnd
	near      []NodeID
	version   uint64
	routes    map[[2]NodeID]routeEntry
	handlers  map[NodeID]Handler
	backlog   map[NodeID]backlogState

	// jamming, when set, returns the jamming intensity [0,1] at a point;
	// links shrink by that factor. attack.Field provides this.
	jamming func(geo.Point) float64
	// linkFault, when set, reports whether the link between two
	// positions is severed by an injected fault (e.g. a partition).
	// internal/fault provides this.
	linkFault func(a, b geo.Point) bool
	// hopFault, when set, is consulted once per hop and may drop,
	// corrupt, or delay the frame. internal/fault provides this.
	hopFault func(*Message) HopEffect

	ticker *sim.Ticker

	// Metrics. Every message accepted by Send/SendDirect/SendGeo
	// increments Sent and reaches exactly one terminal counter —
	// Delivered, Dropped, or NoRoute — unless it is still traversing
	// hops (inFlight). The conservation law
	// Delivered+Dropped+NoRoute+InFlight == Sent is checked
	// continuously by the chaos and failover tests; see
	// CheckConservation.
	Delivered  sim.Counter
	Sent       sim.Counter
	Dropped    sim.Counter
	NoRoute    sim.Counter
	Corrupted  sim.Counter
	LatencySec sim.Series
	HopCount   sim.Series

	inFlight int
}

// CheckConservation verifies the message conservation law:
//
//	Delivered + Dropped + NoRoute + InFlight == Sent
//
// Nothing the network accepts may vanish without a terminal account —
// not across jamming, kill waves, or a command-post crash/restore. The
// fault harness runs this as a continuous invariant.
func (n *Network) CheckConservation() error {
	accounted := n.Delivered.Value() + n.Dropped.Value() + n.NoRoute.Value() + uint64(n.inFlight)
	if accounted != n.Sent.Value() {
		return fmt.Errorf("mesh: conservation violated: delivered %d + dropped %d + noroute %d + inflight %d = %d != sent %d",
			n.Delivered.Value(), n.Dropped.Value(), n.NoRoute.Value(), n.inFlight, accounted, n.Sent.Value())
	}
	return nil
}

// HopEffect is a per-hop fault verdict returned by the hop-fault hook.
type HopEffect struct {
	// Drop discards the frame at this hop.
	Drop bool
	// Corrupt marks the frame corrupted: it is still delivered, but with
	// its kind and payload destroyed, so handlers must tolerate garbage.
	Corrupt bool
	// Delay adds extra latency to this hop.
	Delay time.Duration
}

type routeEntry struct {
	path    []NodeID
	version uint64
}

type backlogState struct {
	bytes float64
	asOf  time.Duration
}

// New builds a network over pop on terr, driven by eng. Call Start to
// begin topology maintenance.
func New(eng *sim.Engine, pop *asset.Population, terr *geo.Terrain, cfg Config) *Network {
	if cfg.NeighborRefresh <= 0 {
		cfg.NeighborRefresh = time.Second
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 64
	}
	n := &Network{
		eng:      eng,
		pop:      pop,
		terr:     terr,
		cfg:      cfg,
		rng:      eng.Stream("mesh"),
		routes:   make(map[[2]NodeID]routeEntry),
		handlers: make(map[NodeID]Handler),
		backlog:  make(map[NodeID]backlogState),
	}
	n.Refresh()
	return n
}

// SetJamming installs the jamming intensity field. Passing nil clears it.
func (n *Network) SetJamming(f func(geo.Point) float64) {
	n.jamming = f
	n.invalidate()
}

// SetLinkFault installs the link-severing fault hook. Passing nil
// clears it. Callers should Refresh after changing fault state so the
// neighbor table reflects the cut links.
func (n *Network) SetLinkFault(f func(a, b geo.Point) bool) {
	n.linkFault = f
	n.invalidate()
}

// SetHopFault installs the per-hop fault hook. Passing nil clears it.
func (n *Network) SetHopFault(f func(*Message) HopEffect) { n.hopFault = f }

// Start begins periodic topology refresh.
func (n *Network) Start() {
	if n.ticker != nil {
		return
	}
	n.ticker = n.eng.Every(n.cfg.NeighborRefresh, "mesh.refresh", func() {
		if n.cfg.StepMobility {
			n.pop.StepMobility(n.cfg.NeighborRefresh)
		}
		if n.cfg.DrainIdle {
			n.pop.StepEnergy(n.cfg.NeighborRefresh)
		}
		n.Refresh()
	})
}

// Stop halts topology maintenance.
func (n *Network) Stop() {
	if n.ticker != nil {
		n.ticker.Stop()
		n.ticker = nil
	}
}

// Version returns the topology version; it increments on every refresh
// and invalidation so callers can cache derived structures.
func (n *Network) Version() uint64 { return n.version }

func (n *Network) invalidate() {
	n.version++
	// Route entries are validated lazily against version.
}

// jamAt returns jamming intensity at p, in [0,1].
func (n *Network) jamAt(p geo.Point) float64 {
	if n.jamming == nil {
		return 0
	}
	v := n.jamming(p)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// A linkEnd is one node's inputs to the link predicate: whether it can
// link at all (alive and online), where it is, its nominal radio range
// and the jamming intensity at its position. Refresh reads them once
// per node per tick; linkRange reads them per call.
type linkEnd struct {
	up    bool
	pos   geo.Point
	radio float64
	jam   float64
}

// endOf reads a's link inputs now. Jamming is sampled only for nodes
// that can link.
func (n *Network) endOf(a *asset.Asset) linkEnd {
	if !a.Alive() || !a.Online {
		return linkEnd{}
	}
	p := a.Pos()
	return linkEnd{up: true, pos: p, radio: a.Caps.RadioRange, jam: n.jamAt(p)}
}

// rangeBetween is the one definition of a link: the effective
// communication range from a to b, accounting for terrain clutter and
// jamming, or 0 if either end cannot link or a fault severs the pair.
// Terrain and jamming only shrink it (RangeFactor is at most 1, jamAt
// at least 0), so the result never exceeds the smaller nominal radio
// range.
func (n *Network) rangeBetween(a, b *linkEnd) float64 {
	if !a.up || !b.up {
		return 0
	}
	r := a.radio
	if b.radio < r {
		r = b.radio
	}
	r *= n.terr.RangeFactor(a.pos, b.pos)
	jam := a.jam
	if b.jam > jam {
		jam = b.jam
	}
	r *= 1 - jam
	if r > 0 && n.linkFault != nil && n.linkFault(a.pos, b.pos) {
		return 0
	}
	return r
}

// linkRange returns the effective communication range between two
// assets now (see rangeBetween), or 0 if either is nil.
func (n *Network) linkRange(a, b *asset.Asset) float64 {
	if a == nil || b == nil {
		return 0
	}
	ea, eb := n.endOf(a), n.endOf(b)
	return n.rangeBetween(&ea, &eb)
}

// Linked reports whether a direct link exists between two nodes now.
func (n *Network) Linked(a, b NodeID) bool {
	aa, bb := n.pop.Get(a), n.pop.Get(b)
	if aa == nil || bb == nil {
		return false
	}
	r := n.linkRange(aa, bb)
	return r > 0 && aa.Pos().Dist(bb.Pos()) <= r
}

// linkSlack is the relative margin of Refresh's squared-distance
// tests. dx²+dy² lies within a few ulps of Hypot², so a pair whose
// squared distance exceeds a range squared by more than this is out of
// that range by the exact Hypot test, and one below it by more than
// this is within it; only pairs inside the margin need Hypot.
const linkSlack = 1e-9

// beyond reports whether points at squared distance d2 are certainly
// farther apart than r.
func beyond(d2, r float64) bool { return d2 > r*r*(1+linkSlack) }

// within reports whether pa and pb, at squared distance d2, are within
// a positive range r — the same verdict as pa.Dist(pb) <= r, with Hypot
// evaluated only near the edge.
func within(pa, pb geo.Point, d2, r float64) bool {
	if r <= 0 || beyond(d2, r) {
		return false
	}
	return d2 < r*r*(1-linkSlack) || pa.Dist(pb) <= r
}

// Refresh recomputes the neighbor table from current positions. It
// snapshots every node's link inputs once, then links each up node to
// the up candidates the spatial index returns within its radio range,
// in index order.
//
//iobt:hot
func (n *Network) Refresh() {
	n.invalidate()
	all := n.pop.All()
	for len(n.ends) < len(all) {
		n.ends = append(n.ends, linkEnd{})
		n.neighbors = append(n.neighbors, nil)
	}
	for i, a := range all {
		n.ends[i] = n.endOf(a)
	}
	for i := range all {
		a := &n.ends[i]
		nbrs := n.neighbors[i][:0]
		if a.up {
			n.near = n.pop.Near(n.near[:0], a.pos, a.radio)
			for _, id := range n.near {
				b := &n.ends[id]
				if int(id) == i || !b.up {
					continue
				}
				// The query already bounds the pair by a's radio range;
				// rangeBetween never exceeds b's either, so a pair
				// beyond it skips terrain, jamming and fault work.
				d2 := a.pos.Dist2(b.pos)
				if beyond(d2, b.radio) {
					continue
				}
				if within(a.pos, b.pos, d2, n.rangeBetween(a, b)) {
					nbrs = append(nbrs, id)
				}
			}
		}
		n.neighbors[i] = nbrs
	}
}

// Neighbors returns the current neighbor list of id, or nil when it has
// none. The slice is owned by the network and valid only until the next
// Refresh, which rewrites it in place: callers must neither mutate nor
// retain it.
func (n *Network) Neighbors(id NodeID) []NodeID {
	if id < 0 || int(id) >= len(n.neighbors) || len(n.neighbors[id]) == 0 {
		return nil
	}
	return n.neighbors[id]
}

// Nodes returns the IDs that currently have at least one link,
// in ascending order. Used by overlays (gossip, spanning tree).
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, 0, len(n.neighbors))
	for id, nbrs := range n.neighbors {
		if len(nbrs) > 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// RegisterHandler sets the delivery callback for a node, replacing any
// previous handler.
func (n *Network) RegisterHandler(id NodeID, h Handler) { n.handlers[id] = h }

// Handler returns the currently registered delivery handler for id (nil
// when none). Overlays that take over a node's handler use it to chain
// the previous one rather than silently dropping its traffic.
func (n *Network) Handler(id NodeID) Handler { return n.handlers[id] }
