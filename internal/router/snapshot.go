package router

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/reduce"
	"gathernoc/internal/topology"
)

// BranchSnapshot serializes one output branch of a packet holding an
// input VC. Destination sets are flattened to member lists; HasDsts and
// HasHeadMD distinguish an absent set (unicast branches) from a present
// one, since the two drive different code paths in flitForBranch.
type BranchSnapshot struct {
	Out       topology.Port
	HasDsts   bool
	Dsts      []topology.NodeID
	VC        int
	Sent      bool
	HasHeadMD bool
	HeadMD    []topology.NodeID
}

// VCSnapshot serializes one input virtual channel: buffered flits in
// order, pipeline stage, branch table, and the station entries the VC
// holds reservations on (encoded as queue indices; -1 = none).
type VCSnapshot struct {
	Flits       []flit.State
	Stage       uint8
	Wait        int
	Branches    []BranchSnapshot
	VCClass     int
	GatherEntry int
	ReduceEntry int
}

// OutputSnapshot serializes one connected output port's credit counters
// and downstream-VC ownership table. Unconnected ports serialize empty.
type OutputSnapshot struct {
	Credits   []int
	OwnerPort []int
	OwnerVC   []int
}

// State is the complete mutable state of one router. Wiring (links,
// routing function, stations' capacities) is rebuilt by construction;
// the scheduling bitmaps and the buffered/loads counters are derived and
// rebuilt on restore.
type State struct {
	Inputs        [][]VCSnapshot
	Outputs       []OutputSnapshot
	GatherStation []reduce.EntrySnapshot
	ReduceStation []reduce.EntrySnapshot
	SAInputNext   []int
	SAOutputNext  []int
	Counters      Counters
}

// CaptureState serializes the router's mutable state.
func (r *Router) CaptureState() State {
	s := State{
		GatherStation: r.station.CaptureEntries(),
		ReduceStation: r.rstation.CaptureEntries(),
		Counters:      r.Counters,
	}
	s.Inputs = make([][]VCSnapshot, topology.NumPorts)
	s.Outputs = make([]OutputSnapshot, topology.NumPorts)
	s.SAInputNext = make([]int, topology.NumPorts)
	s.SAOutputNext = make([]int, topology.NumPorts)
	for p := 0; p < topology.NumPorts; p++ {
		s.SAInputNext[p] = r.saInputArb[p].next
		s.SAOutputNext[p] = r.saOutputArb[p].next
		vcs := make([]VCSnapshot, len(r.inputs[p]))
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			vs := VCSnapshot{
				Stage:       uint8(vc.stage),
				Wait:        vc.wait,
				VCClass:     vc.vcClass,
				GatherEntry: -1,
				ReduceEntry: -1,
			}
			for i := 0; i < vc.buf.Len(); i++ {
				vs.Flits = append(vs.Flits, flit.CaptureFlit(vc.buf.At(i)))
			}
			for i := range vc.branches {
				br := &vc.branches[i]
				bs := BranchSnapshot{Out: br.out, VC: br.vc, Sent: br.sent}
				if br.dsts != nil {
					bs.HasDsts = true
					bs.Dsts = br.dsts.Nodes()
				}
				if br.headMD != nil {
					bs.HasHeadMD = true
					bs.HeadMD = br.headMD.Nodes()
				}
				vs.Branches = append(vs.Branches, bs)
			}
			if vc.gatherLoad && vc.gatherEntry != nil {
				vs.GatherEntry = r.station.EntryIndex(vc.gatherEntry)
			}
			if vc.reduceLoad && vc.reduceEntry != nil {
				vs.ReduceEntry = r.rstation.EntryIndex(vc.reduceEntry)
			}
			vcs[v] = vs
		}
		s.Inputs[p] = vcs
		o := &r.outputs[p]
		if o.connected() {
			s.Outputs[p] = OutputSnapshot{
				Credits:   append([]int(nil), o.credits...),
				OwnerPort: append([]int(nil), o.ownerPort...),
				OwnerVC:   append([]int(nil), o.ownerVC...),
			}
		}
	}
	return s
}

// RestoreState replaces the router's mutable state with the captured
// one. Buffered flits materialize through pool; station entries are
// re-acked through the owning NIC's handlers; the VC-held entry pointers
// are re-linked by queue index. The derived scheduling bitmaps and
// occupancy counters are rebuilt from the restored state. Out-of-range
// stages, waits, branch ports and VCs, ownership entries and arbiter
// rotations are rejected with an error.
func (r *Router) RestoreState(s State, pool *flit.Pool, ep flit.Endpoints, gatherAck, reduceAck reduce.AckFunc) error {
	if len(s.Inputs) != topology.NumPorts || len(s.Outputs) != topology.NumPorts ||
		len(s.SAInputNext) != topology.NumPorts || len(s.SAOutputNext) != topology.NumPorts {
		return fmt.Errorf("router %d: snapshot shape mismatch", r.id)
	}
	if err := r.checkState(s, ep); err != nil {
		return err
	}
	r.station.RestoreEntries(s.GatherStation, gatherAck)
	r.rstation.RestoreEntries(s.ReduceStation, reduceAck)
	r.Counters = s.Counters
	r.buffered, r.loads = 0, 0
	for p := 0; p < topology.NumPorts; p++ {
		r.saInputArb[p].next = s.SAInputNext[p]
		r.saOutputArb[p].next = s.SAOutputNext[p]
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			vs := s.Inputs[p][v]
			vc.buf.Reset()
			for _, fs := range vs.Flits {
				vc.buf.PushBack(fs.Materialize(pool, ep))
				r.buffered++
			}
			vc.stage = vcStage(vs.Stage)
			vc.wait = vs.Wait
			vc.vcClass = vs.VCClass
			vc.branches = vc.branches[:0]
			for _, bs := range vs.Branches {
				br := branchState{out: bs.Out, vc: bs.VC, sent: bs.Sent}
				if bs.HasDsts {
					br.dsts = topology.DestSetOf(ep.Nodes, bs.Dsts...)
				}
				if bs.HasHeadMD {
					br.headMD = topology.DestSetOf(ep.Nodes, bs.HeadMD...)
				}
				vc.branches = append(vc.branches, br)
			}
			vc.gatherLoad, vc.gatherEntry = false, nil
			if vs.GatherEntry >= 0 {
				e := r.station.EntryAt(vs.GatherEntry)
				if e == nil {
					return fmt.Errorf("router %d: snapshot gather entry %d out of range", r.id, vs.GatherEntry)
				}
				vc.gatherEntry = e
				vc.gatherLoad = true
				r.loads++
			}
			vc.reduceLoad, vc.reduceEntry = false, nil
			if vs.ReduceEntry >= 0 {
				e := r.rstation.EntryAt(vs.ReduceEntry)
				if e == nil {
					return fmt.Errorf("router %d: snapshot reduce entry %d out of range", r.id, vs.ReduceEntry)
				}
				vc.reduceEntry = e
				vc.reduceLoad = true
				r.loads++
			}
		}
		r.rcMask[p], r.vaMask[p], r.actMask[p] = r.scanMasks(p)
		o := &r.outputs[p]
		if !o.connected() {
			continue
		}
		os := s.Outputs[p]
		copy(o.credits, os.Credits)
		copy(o.ownerPort, os.OwnerPort)
		copy(o.ownerVC, os.OwnerVC)
		o.free = o.scanFree()
	}
	return nil
}

// checkState rejects a snapshot whose shape or ranges do not fit this
// router, or whose VC pipeline state no run could reach, before
// RestoreState mutates anything.
func (r *Router) checkState(s State, ep flit.Endpoints) error {
	for p := 0; p < topology.NumPorts; p++ {
		if len(s.Inputs[p]) != len(r.inputs[p]) {
			return fmt.Errorf("router %d: snapshot has %d VCs on port %d, router has %d",
				r.id, len(s.Inputs[p]), p, len(r.inputs[p]))
		}
		if n := s.SAInputNext[p]; n < 0 || n >= r.saInputArb[p].n {
			return fmt.Errorf("router %d: snapshot input arbiter %d rotation %d out of range", r.id, p, n)
		}
		if n := s.SAOutputNext[p]; n < 0 || n >= r.saOutputArb[p].n {
			return fmt.Errorf("router %d: snapshot output arbiter %d rotation %d out of range", r.id, p, n)
		}
		o := &r.outputs[p]
		if !o.connected() {
			continue
		}
		os := s.Outputs[p]
		if len(os.Credits) != len(o.credits) || len(os.OwnerPort) != len(o.ownerPort) || len(os.OwnerVC) != len(o.ownerVC) {
			return fmt.Errorf("router %d: snapshot output %d shape mismatch", r.id, p)
		}
		for v, op := range os.OwnerPort {
			ov := os.OwnerVC[v]
			if op < -1 || op >= topology.NumPorts || (op < 0) != (ov < 0) || ov >= len(r.inputs[0]) {
				return fmt.Errorf("router %d: snapshot output %d vc%d owner (%d,%d) out of range", r.id, p, v, op, ov)
			}
		}
	}
	for _, entries := range [][]reduce.EntrySnapshot{s.GatherStation, s.ReduceStation} {
		for _, es := range entries {
			if err := ep.CheckPayloads(es.Operand); err != nil {
				return fmt.Errorf("router %d: snapshot station entry: %w", r.id, err)
			}
		}
	}
	held := map[int]bool{}
	for p := 0; p < topology.NumPorts; p++ {
		for v := range s.Inputs[p] {
			vs := &s.Inputs[p][v]
			if len(vs.Flits) > r.cfg.BufferDepth {
				return fmt.Errorf("router %d: snapshot overfills input %d vc%d", r.id, p, v)
			}
			if vcStage(vs.Stage) > vcActive || vs.Wait < 0 {
				return fmt.Errorf("router %d: snapshot input %d vc%d has stage %d wait %d out of range",
					r.id, p, v, vs.Stage, vs.Wait)
			}
			for i := range vs.Flits {
				err := vs.Flits[i].Check(ep)
				if err == nil {
					err = vs.Flits[i].CheckRoutable()
				}
				if err != nil {
					return fmt.Errorf("router %d: snapshot input %d vc%d: %w", r.id, p, v, err)
				}
			}
			if err := r.checkPipeline(s, p, v, ep, held); err != nil {
				return fmt.Errorf("router %d: snapshot input %d vc%d %w", r.id, p, v, err)
			}
		}
	}
	return nil
}

// checkPipeline rejects a VC whose stage disagrees with its buffer,
// branches and station reservations: only a VC past route computation
// holds branches or reservations, one in RC or VA has its packet's head
// in front, an active one has every branch allocated, each allocated
// branch owns its downstream VC, and every reservation names a distinct
// reserved entry. held collects the reserved entries already claimed
// (gather entries as i, reduce entries as -1-i).
func (r *Router) checkPipeline(s State, p, v int, ep flit.Endpoints, held map[int]bool) error {
	vs := &s.Inputs[p][v]
	stage := vcStage(vs.Stage)
	switch {
	case stage != vcActive && len(vs.Flits) > 0 && !vs.Flits[0].Type.IsHead():
		return fmt.Errorf("in stage %d has a non-head flit in front", stage)
	case (stage == vcRC || stage == vcVA) && len(vs.Flits) == 0:
		return fmt.Errorf("in stage %d is empty", stage)
	case stage <= vcRC && (len(vs.Branches) > 0 || vs.GatherEntry >= 0 || vs.ReduceEntry >= 0):
		return fmt.Errorf("in stage %d holds branches or reservations", stage)
	case stage >= vcVA && len(vs.Branches) == 0:
		return fmt.Errorf("in stage %d has no branches", stage)
	}
	front := flit.State{}
	if len(vs.Flits) > 0 {
		front = vs.Flits[0]
	}
	for _, bs := range vs.Branches {
		if (!bs.HasDsts && len(bs.Dsts) > 0) || (!bs.HasHeadMD && len(bs.HeadMD) > 0) {
			return fmt.Errorf("branch lists members of an absent set")
		}
		for _, set := range [][]topology.NodeID{bs.Dsts, bs.HeadMD} {
			if err := ep.CheckMembers(set); err != nil {
				return fmt.Errorf("branch: %w", err)
			}
		}
		if bs.Out < 0 || bs.Out >= topology.NumPorts || !r.outputs[bs.Out].connected() {
			return fmt.Errorf("branch to unconnected port %d", bs.Out)
		}
		if bs.VC < -1 || bs.VC >= len(r.outputs[bs.Out].credits) {
			return fmt.Errorf("branch VC %d out of range on %s", bs.VC, bs.Out)
		}
		if stage == vcActive && bs.VC < 0 {
			return fmt.Errorf("is active with an unallocated branch")
		}
		// A branch owns its downstream VC until its copy of the tail
		// departs, which may precede the other branches'.
		os := s.Outputs[bs.Out]
		tailSent := bs.Sent && front.Type.IsTail()
		if bs.VC >= 0 && !tailSent && (os.OwnerPort[bs.VC] != p || os.OwnerVC[bs.VC] != v) {
			return fmt.Errorf("branch holds %s vc%d owned by (%d,%d)", bs.Out, bs.VC, os.OwnerPort[bs.VC], os.OwnerVC[bs.VC])
		}
		// Forked copies of a multicast head carry their branch's
		// members, which the next router routes on.
		if front.PT == flit.Multicast && front.Type.IsHead() && len(vs.Branches) > 1 &&
			!bs.Sent && bs.Out != topology.LocalPort && len(bs.HeadMD) == 0 {
			return fmt.Errorf("multicast branch to %s has no members", bs.Out)
		}
	}
	for _, res := range []struct {
		i       int
		entries []reduce.EntrySnapshot
		key     int
	}{{vs.GatherEntry, s.GatherStation, vs.GatherEntry}, {vs.ReduceEntry, s.ReduceStation, -1 - vs.ReduceEntry}} {
		if res.i == -1 {
			continue
		}
		if res.i < -1 || res.i >= len(res.entries) || !res.entries[res.i].Reserved || held[res.key] {
			return fmt.Errorf("holds station entry %d that is absent, unreserved or held twice", res.i)
		}
		held[res.key] = true
	}
	return nil
}
