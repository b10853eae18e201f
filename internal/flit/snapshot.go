package flit

import (
	"fmt"

	"gathernoc/internal/topology"
)

// Endpoints is the address space a restored flit or packet may name:
// mesh nodes [0, Nodes) and, past them, Sinks edge sinks (a network's
// RowSinkIDs). Nodes also sizes rebuilt multicast destination sets.
type Endpoints struct {
	Nodes, Sinks int
}

// has reports whether id names a mesh node or an edge sink.
func (ep Endpoints) has(id topology.NodeID) bool {
	return id >= 0 && int(id) < ep.Nodes+ep.Sinks
}

// CheckAddress rejects a packet's source or destination outside ep, or
// a multicast member outside the mesh.
func (ep Endpoints) CheckAddress(src, dst topology.NodeID, mdst []topology.NodeID) error {
	if !ep.has(src) || !ep.has(dst) {
		return fmt.Errorf("endpoints %d->%d outside the %d nodes and %d sinks", src, dst, ep.Nodes, ep.Sinks)
	}
	return ep.CheckMembers(mdst)
}

// CheckMembers rejects a multicast member outside the mesh.
func (ep Endpoints) CheckMembers(mdst []topology.NodeID) error {
	for _, m := range mdst {
		if m < 0 || int(m) >= ep.Nodes {
			return fmt.Errorf("multicast member %d outside the %d nodes", m, ep.Nodes)
		}
	}
	return nil
}

// CheckPayloads rejects a payload whose producer or destination is
// outside ep: a restored payload may be re-sent to its destination.
func (ep Endpoints) CheckPayloads(ps ...Payload) error {
	for _, p := range ps {
		if !ep.has(p.Src) || !ep.has(p.Dst) {
			return fmt.Errorf("payload %d endpoints %d->%d outside the %d nodes and %d sinks", p.Seq, p.Src, p.Dst, ep.Nodes, ep.Sinks)
		}
	}
	return nil
}

// Valid reports whether pt is a defined packet type.
func (pt PacketType) Valid() bool { return pt >= Unicast && pt <= Accumulate }

// State is the serialized form of one in-flight flit: every field by
// value, with the multicast destination set flattened to its member list
// (the only pointer a flit carries). Snapshots store flits in State form;
// restore materializes them through the owning network's pool so the
// acquire/release accounting balances exactly as if the flit had lived
// its whole life in the restored network.
type State struct {
	Type          Type
	PT            PacketType
	PacketID      uint64
	Tag           Tag
	Seq           int
	PacketFlits   int
	Src           topology.NodeID
	Dst           topology.NodeID
	MDst          []topology.NodeID
	ASpace        int
	ReduceID      uint64
	SlotCap       int
	Payloads      []Payload
	Corrupted     bool
	TrackOperands bool
	InjectCycle   int64
	NetworkCycle  int64
	Hops          int
}

// CaptureFlit serializes f by value.
func CaptureFlit(f *Flit) State {
	s := State{
		Type:          f.Type,
		PT:            f.PT,
		PacketID:      f.PacketID,
		Tag:           f.Tag,
		Seq:           f.Seq,
		PacketFlits:   f.PacketFlits,
		Src:           f.Src,
		Dst:           f.Dst,
		ASpace:        f.ASpace,
		ReduceID:      f.ReduceID,
		SlotCap:       f.SlotCap,
		Corrupted:     f.Corrupted,
		TrackOperands: f.TrackOperands,
		InjectCycle:   f.InjectCycle,
		NetworkCycle:  f.NetworkCycle,
		Hops:          f.Hops,
	}
	if f.MDst != nil {
		s.MDst = f.MDst.Nodes()
	}
	if len(f.Payloads) > 0 {
		s.Payloads = append([]Payload(nil), f.Payloads...)
	}
	return s
}

// Check rejects a state no run could have captured and a restored
// fabric could not carry — an endpoint outside ep (the flit's or a
// carried payload's), an unknown flit or
// packet type, a packet shorter than one flit, or multicast members on
// anything but a multicast flit — so restores refuse
// it before mutating anything instead of panicking cycles later.
func (s *State) Check(ep Endpoints) error {
	if s.Type < Head || s.Type > HeadTail || !s.PT.Valid() {
		return fmt.Errorf("flit of packet %d has type %d/%d", s.PacketID, s.Type, s.PT)
	}
	if s.PacketFlits < 1 {
		return fmt.Errorf("flit of packet %d has packet length %d", s.PacketID, s.PacketFlits)
	}
	if s.PT != Multicast && len(s.MDst) > 0 {
		return fmt.Errorf("%s flit of packet %d has %d multicast members", s.PT, s.PacketID, len(s.MDst))
	}
	if err := ep.CheckAddress(s.Src, s.Dst, s.MDst); err != nil {
		return fmt.Errorf("flit of packet %d: %w", s.PacketID, err)
	}
	if err := ep.CheckPayloads(s.Payloads...); err != nil {
		return fmt.Errorf("flit of packet %d: %w", s.PacketID, err)
	}
	return nil
}

// CheckRoutable rejects a multicast head with no members where the head
// is still to be routed (in a router, or on its way to one): route
// computation branches on the members. Heads bound for an ejector may
// legitimately carry none.
func (s *State) CheckRoutable() error {
	if s.PT == Multicast && s.Type.IsHead() && len(s.MDst) == 0 {
		return fmt.Errorf("multicast head of packet %d has no members to route to", s.PacketID)
	}
	return nil
}

// Materialize acquires a fresh flit from p and restores the captured
// fields onto it. ep.Nodes sizes the rebuilt multicast destination set.
func (s State) Materialize(p *Pool, ep Endpoints) *Flit {
	f := p.Acquire()
	payloads := append(f.Payloads[:0], s.Payloads...)
	*f = Flit{
		Type:          s.Type,
		PT:            s.PT,
		PacketID:      s.PacketID,
		Tag:           s.Tag,
		Seq:           s.Seq,
		PacketFlits:   s.PacketFlits,
		Src:           s.Src,
		Dst:           s.Dst,
		ASpace:        s.ASpace,
		ReduceID:      s.ReduceID,
		SlotCap:       s.SlotCap,
		Payloads:      payloads,
		Corrupted:     s.Corrupted,
		TrackOperands: s.TrackOperands,
		InjectCycle:   s.InjectCycle,
		NetworkCycle:  s.NetworkCycle,
		Hops:          s.Hops,
	}
	if len(s.MDst) > 0 {
		f.MDst = topology.DestSetOf(ep.Nodes, s.MDst...)
	}
	return f
}
