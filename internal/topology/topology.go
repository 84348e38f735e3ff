// Package topology models the physical power delivery hierarchy of a data
// center (paper Fig 2): utility → MSB (2.5 MW) → SB (1.25 MW) → RPP
// (190 kW) → rack (12.6 kW) → servers, plus non-server equipment such as
// top-of-rack switches that draw from the same breakers but cannot be
// capped (paper §III-E).
//
// A Topology is a static tree; dynamic state (power draw, breaker heat,
// caps) lives in the simulator and controllers, keyed by NodeID.
package topology

import (
	"fmt"
	"sort"

	"dynamo/internal/power"
)

// NodeID uniquely identifies a node in the hierarchy, e.g.
// "dc1/msb2/sb1/rpp3/rack07/srv0012".
type NodeID string

// Kind enumerates node types in the hierarchy.
type Kind int

const (
	// KindDatacenter is the root utility feed.
	KindDatacenter Kind = iota
	// KindMSB is a Main Switch Board.
	KindMSB
	// KindSB is a Switch Board.
	KindSB
	// KindRPP is a Reactive Power Panel (or PDU breaker in leased DCs).
	KindRPP
	// KindRack is a rack power shelf.
	KindRack
	// KindServer is a server.
	KindServer
	// KindSwitch is a non-server network device (monitored, not capped).
	KindSwitch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDatacenter:
		return "datacenter"
	case KindMSB:
		return "msb"
	case KindSB:
		return "sb"
	case KindRPP:
		return "rpp"
	case KindRack:
		return "rack"
	case KindServer:
		return "server"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DeviceClass maps a breaker-protected kind to its power.DeviceClass.
// ok is false for kinds without a breaker class (servers, switches, root).
func (k Kind) DeviceClass() (power.DeviceClass, bool) {
	switch k {
	case KindMSB:
		return power.ClassMSB, true
	case KindSB:
		return power.ClassSB, true
	case KindRPP:
		return power.ClassRPP, true
	case KindRack:
		return power.ClassRack, true
	default:
		return 0, false
	}
}

// Node is one element of the hierarchy tree.
type Node struct {
	ID   NodeID
	Kind Kind
	// Rating is the physical breaker/power-shelf rating. Zero for nodes
	// without their own breaker (servers, switches).
	Rating power.Watts
	// Quota is the planned peak power ("power quota", paper §III-D) used
	// by punish-offender-first. It is normally below Rating because power
	// is oversubscribed at every level.
	Quota power.Watts

	Parent   *Node
	Children []*Node

	// Server metadata; meaningful only when Kind == KindServer.
	Service    string
	Generation string

	// Aggregation index, precomputed by New so per-tick power aggregation
	// never re-walks the tree. directLeaves are the server/switch nodes
	// attached to this node without an intervening breaker-protected
	// device; childDevices are the nearest breaker-protected descendants.
	// A device's draw is the sum of its direct leaves plus its child
	// devices' draws (plus any device-local draw such as DCUPS recharge).
	directLeaves []*Node
	childDevices []*Node
}

// IsDevice reports whether the node is a breaker-protected power device.
func (n *Node) IsDevice() bool {
	_, ok := n.Kind.DeviceClass()
	return ok
}

// Servers returns all servers in the subtree rooted at n, in tree order.
func (n *Node) Servers() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Kind == KindServer {
			out = append(out, m)
		}
	})
	return out
}

// Walk visits the subtree rooted at n in depth-first pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// DirectLeaves returns the server and switch nodes attached to n without
// an intervening breaker-protected device, in tree order. Precomputed at
// index time; callers must not mutate the returned slice.
func (n *Node) DirectLeaves() []*Node { return n.directLeaves }

// ChildDevices returns the nearest breaker-protected devices below n, in
// tree order. Precomputed at index time; callers must not mutate the
// returned slice.
func (n *Node) ChildDevices() []*Node { return n.childDevices }

// Level returns the node's depth from the root (root = 0).
func (n *Node) Level() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Path returns the chain of ancestors from the root down to n inclusive.
func (n *Node) Path() []*Node {
	var rev []*Node
	for m := n; m != nil; m = m.Parent {
		rev = append(rev, m)
	}
	out := make([]*Node, len(rev))
	for i, m := range rev {
		out[len(rev)-1-i] = m
	}
	return out
}

// Topology is a fully built hierarchy with lookup indices.
type Topology struct {
	Root *Node

	byID    map[NodeID]*Node
	byKind  map[Kind][]*Node
	servers []*Node
	devPost []*Node
}

// New indexes a tree rooted at root. It validates ID uniqueness and parent
// pointers.
func New(root *Node) (*Topology, error) {
	t := &Topology{
		Root:   root,
		byID:   make(map[NodeID]*Node),
		byKind: make(map[Kind][]*Node),
	}
	var err error
	root.Walk(func(n *Node) {
		if err != nil {
			return
		}
		if _, dup := t.byID[n.ID]; dup {
			err = fmt.Errorf("topology: duplicate node ID %q", n.ID)
			return
		}
		t.byID[n.ID] = n
		t.byKind[n.Kind] = append(t.byKind[n.Kind], n)
		if n.Kind == KindServer {
			t.servers = append(t.servers, n)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("topology: node %q has wrong parent pointer", c.ID)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	t.buildAggIndex(root)
	return t, nil
}

// buildAggIndex computes, bottom-up, each node's directly attached leaves
// (servers/switches) and nearest descendant devices, and records devices
// in post-order so a single forward pass over DevicesPostOrder can
// aggregate power for the whole hierarchy with children always computed
// before their parents.
func (t *Topology) buildAggIndex(n *Node) {
	for _, c := range n.Children {
		t.buildAggIndex(c)
	}
	for _, c := range n.Children {
		switch {
		case c.IsDevice():
			n.childDevices = append(n.childDevices, c)
		case c.Kind == KindServer || c.Kind == KindSwitch:
			n.directLeaves = append(n.directLeaves, c)
		default:
			// Non-device interior node: hoist its leaves and devices.
			n.directLeaves = append(n.directLeaves, c.directLeaves...)
			n.childDevices = append(n.childDevices, c.childDevices...)
		}
	}
	if n.IsDevice() {
		t.devPost = append(t.devPost, n)
	}
}

// Lookup returns the node with the given ID, or nil.
func (t *Topology) Lookup(id NodeID) *Node { return t.byID[id] }

// OfKind returns all nodes of a kind in tree order.
func (t *Topology) OfKind(k Kind) []*Node { return t.byKind[k] }

// Servers returns every server node in tree order.
func (t *Topology) Servers() []*Node { return t.servers }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.byID) }

// Devices returns all breaker-protected device nodes, top level first.
func (t *Topology) Devices() []*Node {
	var out []*Node
	for _, k := range []Kind{KindMSB, KindSB, KindRPP, KindRack} {
		out = append(out, t.byKind[k]...)
	}
	return out
}

// DevicesPostOrder returns all breaker-protected devices in depth-first
// post-order: every device appears after all devices in its subtree, so a
// single forward pass can fold child draws into parents (the per-tick
// bottom-up aggregation). Callers must not mutate the returned slice.
func (t *Topology) DevicesPostOrder() []*Node { return t.devPost }

// ServicesPresent returns the sorted set of service names in the topology.
func (t *Topology) ServicesPresent() []string {
	set := map[string]bool{}
	for _, s := range t.servers {
		if s.Service != "" {
			set[s.Service] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ServersUnder returns the servers beneath the device with the given ID.
func (t *Topology) ServersUnder(id NodeID) []*Node {
	n := t.Lookup(id)
	if n == nil {
		return nil
	}
	return n.Servers()
}
