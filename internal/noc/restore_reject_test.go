package noc

import (
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/reduce"
	"gathernoc/internal/router"
	"gathernoc/internal/topology"
)

// rejectFixture is a mid-run 4x4 snapshot, encoded, with packets held in
// router pipelines: the base every out-of-range corruption starts from.
type rejectFixture struct {
	cfg  Config
	data []byte
}

func newRejectFixture(t testing.TB) rejectFixture {
	t.Helper()
	cfg := DefaultConfig(4, 4)
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	n := topology.NodeID(cfg.Rows * cfg.Cols)
	for src := topology.NodeID(0); src < n; src++ {
		nw.NIC(src).SendUnicastN((src+5)%n, 4)
		nw.NIC(src).SendUnicastN((n-1-src+n)%n, 4)
	}
	nw.Engine().Run(6)
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return rejectFixture{cfg: cfg, data: data}
}

// sink returns the address of row's edge sink (Network.RowSinkID).
func (fx rejectFixture) sink(row int) topology.NodeID {
	return topology.NodeID(fx.cfg.Rows*fx.cfg.Cols + row)
}

// restore decodes a fresh copy of the snapshot, applies corrupt, and
// restores it onto a fresh network.
func (fx rejectFixture) restore(t *testing.T, corrupt func(*Snapshot)) error {
	t.Helper()
	s, err := DecodeSnapshot(fx.data)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(s)
	nw, err := New(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	return nw.Restore(s)
}

// TestRestoreRejectsOutOfRangeState corrupts one field of an encoded
// mid-run snapshot per case and checks Restore refuses it with an error
// naming the problem, rather than restoring a router, link, NIC or
// ejector that would panic or misbehave on its next cycle.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	fx := newRejectFixture(t)
	if err := fx.restore(t, func(*Snapshot) {}); err != nil {
		t.Fatalf("uncorrupted snapshot rejected: %v", err)
	}
	// branched locates a router input VC holding a routed packet, and
	// unconnected a router output port with no link.
	branched := func(s *Snapshot) (ri, p, v int) {
		for ri, rs := range s.Routers {
			for p, vcs := range rs.Inputs {
				for v, vs := range vcs {
					if len(vs.Branches) > 0 {
						return ri, p, v
					}
				}
			}
		}
		t.Fatal("no routed packet in the fixture snapshot")
		return
	}
	unconnected := func(s *Snapshot) (ri int, p topology.Port) {
		for ri, rs := range s.Routers {
			for p, os := range rs.Outputs {
				if len(os.Credits) == 0 {
					return ri, topology.Port(p)
				}
			}
		}
		t.Fatal("no unconnected output port in the fixture snapshot")
		return
	}
	// allocated locates a router input VC whose first branch holds a
	// downstream VC, and idleVC an empty idle one.
	allocated := func(s *Snapshot) (ri, p, v int) {
		for ri, rs := range s.Routers {
			for p, vcs := range rs.Inputs {
				for v, vs := range vcs {
					if len(vs.Branches) > 0 && vs.Branches[0].VC >= 0 {
						return ri, p, v
					}
				}
			}
		}
		t.Fatal("no allocated branch in the fixture snapshot")
		return
	}
	idleVC := func(s *Snapshot) *router.VCSnapshot {
		for _, rs := range s.Routers {
			for _, vcs := range rs.Inputs {
				for v := range vcs {
					if vcs[v].Stage == 0 && len(vcs[v].Flits) == 0 {
						return &vcs[v]
					}
				}
			}
		}
		t.Fatal("no empty idle VC in the fixture snapshot")
		return nil
	}
	vcs := fx.cfg.Router.VCs
	// headFlit returns a copy of a buffered head flit, corrupted by bad;
	// withFlit plants one into a router buffer, a link, a NIC stream, a
	// NIC's ejector and a sink.
	headFlit := func(s *Snapshot, bad func(*flit.State)) flit.State {
		ri, p, v := branched(s)
		f := s.Routers[ri].Inputs[p][v].Flits[0]
		bad(&f)
		return f
	}
	inRouter := func(bad func(*flit.State)) func(*Snapshot) {
		return func(s *Snapshot) {
			ri, p, v := branched(s)
			bad(&s.Routers[ri].Inputs[p][v].Flits[0])
		}
	}
	// Flits planted on a link or into an ejector take the upstream
	// credit they would have cost, so credit conservation holds. Link 0
	// joins router 0's east output to router 1; node 7 is row 1's east
	// edge.
	onLink := func(bad func(*flit.State)) func(*Snapshot) {
		return func(s *Snapshot) {
			s.Links[0].Flits = append(s.Links[0].Flits, link.InflightFlit{Flit: headFlit(s, bad), VC: 0, Due: s.Cycle + 1})
			s.Routers[0].Outputs[topology.EastPort].Credits[0]--
		}
	}
	inStream := func(bad func(*flit.State)) func(*Snapshot) {
		return func(s *Snapshot) {
			n := &s.NICs[6]
			for len(n.Streams) < vcs {
				n.Streams = append(n.Streams, nil)
			}
			n.Streams[1] = append(n.Streams[1], headFlit(s, bad))
		}
	}
	inEjector := func(bad func(*flit.State)) func(*Snapshot) {
		return func(s *Snapshot) {
			ej := &s.NICs[7].Ejector
			s.Routers[7].Outputs[topology.LocalPort].Credits[2] -= 1 - len(ej.Bufs[2])
			ej.Bufs[2] = append(ej.Bufs[2][:0], headFlit(s, bad))
		}
	}
	inSink := func(bad func(*flit.State)) func(*Snapshot) {
		return func(s *Snapshot) {
			s.Routers[7].Outputs[topology.EastPort].Credits[0] -= 1 - len(s.Sinks[1].Bufs[0])
			s.Sinks[1].Bufs[0] = append(s.Sinks[1].Bufs[0][:0], headFlit(s, bad))
		}
	}
	queued := func(bad func(*nic.PacketState)) func(*Snapshot) {
		return func(s *Snapshot) {
			ps := nic.PacketState{ID: 99, PT: flit.Unicast, Src: 3, Dst: fx.sink(1), Flits: 2}
			bad(&ps)
			s.NICs[3].Queue = append(s.NICs[3].Queue, ps)
		}
	}
	farDst := func(f *flit.State) { f.Dst = 1 << 20 }
	// Planted flits and packets that are not corrupted restore cleanly,
	// so each rejection below is the corruption's doing; a sink is a
	// valid destination.
	toSink := func(f *flit.State) { f.Dst = fx.sink(fx.cfg.Rows - 1) }
	for _, plant := range []func(*Snapshot){onLink(toSink), inStream(toSink), inEjector(toSink), inSink(toSink),
		queued(func(*nic.PacketState) {})} {
		if err := fx.restore(t, plant); err != nil {
			t.Fatalf("uncorrupted planted state rejected: %v", err)
		}
	}
	cases := []struct {
		name    string
		corrupt func(*Snapshot)
		want    string
	}{
		{"stage", func(s *Snapshot) { s.Routers[1].Inputs[0][0].Stage = 4 }, "stage 4"},
		{"wait", func(s *Snapshot) { s.Routers[1].Inputs[2][1].Wait = -1 }, "wait -1"},
		{"branch port", func(s *Snapshot) {
			ri, out := unconnected(s)
			vs := &s.Routers[ri].Inputs[0][0]
			vs.Branches = append(vs.Branches, router.BranchSnapshot{Out: out, VC: -1})
		}, "unconnected port"},
		{"branch port beyond ports", func(s *Snapshot) {
			ri, p, v := branched(s)
			s.Routers[ri].Inputs[p][v].Branches[0].Out = topology.NumPorts + 3
		}, "unconnected port"},
		{"branch vc", func(s *Snapshot) {
			ri, p, v := branched(s)
			s.Routers[ri].Inputs[p][v].Branches[0].VC = vcs
		}, "branch VC"},
		{"vc owner", func(s *Snapshot) {
			os := s.Routers[5].Outputs[topology.LocalPort]
			os.OwnerPort[0], os.OwnerVC[0] = topology.NumPorts, 0
		}, "owner"},
		{"input arbiter", func(s *Snapshot) { s.Routers[3].SAInputNext[2] = vcs }, "input arbiter"},
		{"output arbiter", func(s *Snapshot) { s.Routers[3].SAOutputNext[4] = -1 }, "output arbiter"},
		{"link credit vc", func(s *Snapshot) {
			s.Links[0].Credits = append(s.Links[0].Credits, link.InflightCredit{VC: vcs, Due: s.Cycle + 1})
		}, "credit on vc"},
		{"link flit vc", func(s *Snapshot) {
			ri, p, v := branched(s)
			f := s.Routers[ri].Inputs[p][v].Flits[0]
			s.Links[0].Flits = append(s.Links[0].Flits, link.InflightFlit{Flit: f, VC: -1, Due: s.Cycle + 1})
		}, "flit on vc-1"},
		{"link owed credits", func(s *Snapshot) { s.Links[0].OwedCredits = make([]int, vcs+1) }, "owes credits"},
		{"nic send rotation", func(s *Snapshot) { s.NICs[2].SendRR = -1 }, "send rotation -1"},
		{"nic send rotation beyond vcs", func(s *Snapshot) { s.NICs[2].SendRR = vcs }, "send rotation"},
		{"nic drain rotation", func(s *Snapshot) { s.NICs[4].Ejector.DrainRR = -1 }, "drain rotation -1"},
		{"sink drain rotation", func(s *Snapshot) { s.Sinks[0].DrainRR = vcs }, "drain rotation"},
		{"nic streams", func(s *Snapshot) {
			s.NICs[1].Streams = append(s.NICs[1].Streams, make([][]flit.State, vcs+1-len(s.NICs[1].Streams))...)
		}, "streams"},
		{"nic credit above depth", func(s *Snapshot) { s.NICs[3].Credits[1] = fx.cfg.Router.BufferDepth + 1 }, "credit"},
		{"nic negative credit", func(s *Snapshot) { s.NICs[3].Credits[0] = -1 }, "credit -1"},
		{"negative cycle", func(s *Snapshot) { s.Cycle = -1 }, "negative cycle"},
		{"credit conservation", func(s *Snapshot) { s.Routers[5].Outputs[topology.LocalPort].Credits[0]-- }, "ej5 vc0: upstream credit 3, 0 buffered, 0 in flight or owed: 3 buffer slots, want 4"},
		{"negative link credit", func(s *Snapshot) {
			s.Routers[5].Outputs[topology.LocalPort].Credits[1] = -1
			s.NICs[5].Ejector.Bufs[1] = append(s.NICs[5].Ejector.Bufs[1], make([]flit.State, 5-len(s.NICs[5].Ejector.Bufs[1]))...)
		}, "ej5 vc1: upstream credit -1"},
		{"negative owed credits", func(s *Snapshot) {
			s.Links[0].OwedCredits = []int{-1}
			s.Routers[0].Outputs[topology.EastPort].Credits[0]++
		}, "owes -1 credits"},
		{"rc stage without a flit", func(s *Snapshot) { idleVC(s).Stage = 1 }, "in stage 1 is empty"},
		{"idle with a body flit in front", func(s *Snapshot) {
			ri, p, v := branched(s)
			vs := &s.Routers[ri].Inputs[p][v]
			vs.Stage, vs.Branches, vs.Flits[0].Type = 0, nil, flit.Body
		}, "non-head flit in front"},
		{"idle with branches", func(s *Snapshot) {
			ri, p, v := branched(s)
			vs := &s.Routers[ri].Inputs[p][v]
			vs.Stage, vs.Flits[0].Type = 0, flit.Head
		}, "holds branches or reservations"},
		{"va without branches", func(s *Snapshot) {
			ri, p, v := branched(s)
			vs := &s.Routers[ri].Inputs[p][v]
			vs.Stage, vs.Branches, vs.Flits[0].Type = 2, nil, flit.Head
		}, "has no branches"},
		{"active with an unallocated branch", func(s *Snapshot) {
			ri, p, v := branched(s)
			vs := &s.Routers[ri].Inputs[p][v]
			vs.Stage, vs.Branches[0].VC = 3, -1
		}, "unallocated branch"},
		{"branch on a VC it does not own", func(s *Snapshot) {
			ri, p, v := allocated(s)
			br := &s.Routers[ri].Inputs[p][v].Branches[0]
			br.Sent = false
			os := s.Routers[ri].Outputs[br.Out]
			os.OwnerPort[br.VC], os.OwnerVC[br.VC] = -1, -1
		}, "owned by (-1,-1)"},
		{"unreserved station entry", func(s *Snapshot) {
			ri, p, v := branched(s)
			s.Routers[ri].GatherStation = []reduce.EntrySnapshot{{Operand: flit.Payload{Src: 1, Dst: fx.sink(0)}}}
			s.Routers[ri].Inputs[p][v].GatherEntry = 0
		}, "station entry 0 that is absent, unreserved or held twice"},
		{"station operand dst", func(s *Snapshot) {
			s.Routers[2].ReduceStation = []reduce.EntrySnapshot{{Operand: flit.Payload{Src: 2, Dst: 1 << 20}}}
		}, "station entry: payload"},
		{"link multicast head without members", onLink(func(f *flit.State) {
			f.PT, f.Type, f.MDst = flit.Multicast, flit.Head, nil
		}), "no members to route to"},
		{"unicast flit with members", inRouter(func(f *flit.State) { f.MDst = []topology.NodeID{3} }), "1 multicast members"},
		{"waiting payload dst", func(s *Snapshot) {
			s.NICs[2].Waiting = append(s.NICs[2].Waiting, nic.WaitState{Payload: flit.Payload{Src: 2, Dst: -4}})
		}, "waiting payload"},
		{"router flit dst", inRouter(farDst), "->1048576 outside"},
		{"router flit src", inRouter(func(f *flit.State) { f.Src = -1 }), "-1->"},
		{"router flit dst past the sinks", inRouter(func(f *flit.State) { f.Dst = fx.sink(fx.cfg.Rows) }), "outside the 16 nodes and 4 sinks"},
		{"router flit multicast member", inRouter(func(f *flit.State) {
			f.PT, f.MDst = flit.Multicast, []topology.NodeID{2, 16}
		}), "multicast member 16"},
		{"router flit type", inRouter(func(f *flit.State) { f.Type = flit.HeadTail + 1 }), "type 5/"},
		{"router flit packet type", inRouter(func(f *flit.State) { f.PT = 0 }), "/0"},
		{"router flit packet length", inRouter(func(f *flit.State) { f.PacketFlits = 0 }), "packet length 0"},
		{"router branch member", func(s *Snapshot) {
			ri, p, v := branched(s)
			br := &s.Routers[ri].Inputs[p][v].Branches[0]
			br.HasDsts, br.Dsts = true, []topology.NodeID{-3}
		}, "multicast member -3"},
		{"link flit dst", onLink(farDst), "link"},
		{"nic stream flit dst", inStream(farDst), "stream vc1"},
		{"nic ejector flit dst", inEjector(farDst), "vc2"},
		{"sink flit type", inSink(func(f *flit.State) { f.Type = 0 }), "type 0/"},
		{"nic queue dst", queued(func(ps *nic.PacketState) { ps.Dst = fx.sink(fx.cfg.Rows) }), "queued packet 99"},
		{"nic queue multicast member", queued(func(ps *nic.PacketState) {
			ps.PT, ps.HasMDst, ps.MDst = flit.Multicast, true, []topology.NodeID{1 << 20}
		}), "multicast member 1048576"},
		{"nic queue packet type", queued(func(ps *nic.PacketState) { ps.PT = flit.Accumulate + 1 }), "type 5"},
		{"nic queue length", queued(func(ps *nic.PacketState) { ps.Flits = 0 }), "0 flits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := fx.restore(t, tc.corrupt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
