package router

import (
	"fmt"

	"gathernoc/internal/topology"
)

// CheckInvariants validates the router's internal consistency and returns
// the first violation found. It is intended for tests and debugging runs
// (call between cycles); a healthy router never violates these:
//
//   - input buffers never exceed the configured depth;
//   - credit counters stay within [0, downstream depth];
//   - an input VC past route computation has at least one branch;
//   - every downstream-VC ownership entry points back at an input VC that
//     actually holds that allocation;
//   - a raised gather or accumulate Load signal has a reserved station
//     entry;
//   - the incrementally maintained scheduling state — the per-port
//     rc/va/active VC bitmaps, the per-output free-VC bitmaps and the
//     buffered/loads counters — agrees with a full rescan.
func (r *Router) CheckInvariants() error {
	buffered, loads := 0, 0
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			buffered += vc.buf.Len()
			if vc.gatherLoad {
				loads++
			}
			if vc.reduceLoad {
				loads++
			}
			if vc.buf.Len() > r.cfg.BufferDepth {
				return fmt.Errorf("router %d: input %s vc%d holds %d flits (depth %d)",
					r.id, topology.Port(p), v, vc.buf.Len(), r.cfg.BufferDepth)
			}
			if (vc.stage == vcActive) && len(vc.branches) == 0 {
				return fmt.Errorf("router %d: input %s vc%d active without branches",
					r.id, topology.Port(p), v)
			}
			if vc.gatherLoad && vc.gatherEntry == nil {
				return fmt.Errorf("router %d: input %s vc%d load raised without reservation",
					r.id, topology.Port(p), v)
			}
			if vc.reduceLoad && vc.reduceEntry == nil {
				return fmt.Errorf("router %d: input %s vc%d reduce load raised without reservation",
					r.id, topology.Port(p), v)
			}
			head := vc.head()
			for bi := range vc.branches {
				br := &vc.branches[bi]
				if br.vc < 0 {
					continue
				}
				out := &r.outputs[br.out]
				if !out.connected() {
					return fmt.Errorf("router %d: branch to unconnected port %s", r.id, br.out)
				}
				// A branch that already forwarded the packet's tail has
				// released its downstream VC (per-branch wormhole
				// teardown) even while sibling branches are pending.
				if br.sent && head != nil && head.IsTail() {
					continue
				}
				if out.ownerPort[br.vc] != p || out.ownerVC[br.vc] != v {
					return fmt.Errorf("router %d: output %s vc%d owned by (%d,%d), branch claims (%d,%d)",
						r.id, br.out, br.vc, out.ownerPort[br.vc], out.ownerVC[br.vc], p, v)
				}
			}
		}
		if rc, va, act := r.scanMasks(p); rc != r.rcMask[p] || va != r.vaMask[p] || act != r.actMask[p] {
			return fmt.Errorf("router %d: input %s VC bitmaps (rc=%#x va=%#x active=%#x) drifted from rescan (%#x %#x %#x)",
				r.id, topology.Port(p), r.rcMask[p], r.vaMask[p], r.actMask[p], rc, va, act)
		}
	}
	for p := 0; p < topology.NumPorts; p++ {
		out := &r.outputs[p]
		if !out.connected() {
			continue
		}
		for v, c := range out.credits {
			if c < 0 {
				return fmt.Errorf("router %d: output %s vc%d credit %d < 0",
					r.id, topology.Port(p), v, c)
			}
		}
		for v := range out.ownerPort {
			op, ov := out.ownerPort[v], out.ownerVC[v]
			if op < 0 {
				continue
			}
			vc := &r.inputs[op][ov]
			held := false
			for bi := range vc.branches {
				if vc.branches[bi].out == topology.Port(p) && vc.branches[bi].vc == v {
					held = true
				}
			}
			if !held {
				return fmt.Errorf("router %d: output %s vc%d allocated to (%d,%d) which does not hold it",
					r.id, topology.Port(p), v, op, ov)
			}
		}
		if free := out.scanFree(); free != out.free {
			return fmt.Errorf("router %d: output %s free-VC bitmap %#x drifted from rescan %#x",
				r.id, topology.Port(p), out.free, free)
		}
	}
	if buffered != r.buffered || loads != r.loads {
		return fmt.Errorf("router %d: occupancy counters (buffered=%d loads=%d) drifted from rescan (%d %d)",
			r.id, r.buffered, r.loads, buffered, loads)
	}
	return nil
}

// scanMasks computes input port p's rc, va and active VC bitmaps from the
// VC stages and buffer fronts: the full rescan the incrementally
// maintained masks must always equal.
func (r *Router) scanMasks(p int) (rc, va, act uint64) {
	for v := range r.inputs[p] {
		vc := &r.inputs[p][v]
		bit := uint64(1) << uint(v)
		switch vc.stage {
		case vcIdle:
			if h := vc.head(); h != nil && h.IsHead() {
				rc |= bit
			}
		case vcRC:
			rc |= bit
		case vcVA:
			va |= bit
		case vcActive:
			act |= bit
		}
	}
	return rc, va, act
}

// scanFree computes the output's free-VC bitmap from its ownership table.
func (o *outputPort) scanFree() uint64 {
	var free uint64
	for v, op := range o.ownerPort {
		if op < 0 {
			free |= 1 << uint(v)
		}
	}
	return free
}
