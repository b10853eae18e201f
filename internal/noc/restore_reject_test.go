package noc

import (
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/router"
	"gathernoc/internal/topology"
)

// rejectFixture is a mid-run 4x4 snapshot, encoded, with packets held in
// router pipelines: the base every out-of-range corruption starts from.
type rejectFixture struct {
	cfg  Config
	data []byte
}

func newRejectFixture(t *testing.T) rejectFixture {
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
	vcs := fx.cfg.Router.VCs
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
