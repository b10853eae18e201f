package router

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/topology"
)

// soloNodes sizes the destination sets the solo harness routes on.
const soloNodes = 16

// soloRoute is the solo harness's routing function, a pure function of
// the head flit: unicast and gather packets leave on port Dst mod 5 (every
// third unicast adaptively, between that port and the next), multicast
// packets fork onto the ports named by their MDst members mod 5, and every
// packet's dateline class is its ID mod 2.
func soloRoute(_ topology.NodeID, f *flit.Flit) Route {
	rt := Route{VCClass: int(f.PacketID % 2)}
	out := topology.Port(int(f.Dst) % topology.NumPorts)
	switch {
	case f.PT == flit.Multicast:
		var byPort [topology.NumPorts][]topology.NodeID
		for _, n := range f.MDst.Nodes() {
			p := int(n) % topology.NumPorts
			byPort[p] = append(byPort[p], n)
		}
		for p, nodes := range byPort {
			if len(nodes) > 0 {
				rt.Branches = append(rt.Branches, topology.MulticastBranch{
					Out: topology.Port(p), Dsts: topology.DestSetOf(soloNodes, nodes...)})
			}
		}
	case f.PT == flit.Unicast && f.PacketID%3 == 0:
		rt.Adaptive = []topology.Port{out, (out + 1) % topology.NumPorts}
	default:
		rt.Branches = []topology.MulticastBranch{{Out: out}}
	}
	return rt
}

// delivery is one flit arriving at a solo harness output.
type delivery struct {
	Cycle  int64
	Out    int
	VC     int
	Packet uint64
	Type   flit.Type
	Pays   int
}

// soloHarness drives one router with every port wired to test-owned
// links: random packets enter on the input links under credit flow
// control, and random-rate consumers behind the output links return
// credits. All traffic decisions come from the harness's own seeded
// source and its own (router-independent) bookkeeping, so two harnesses
// with one seed see identical traffic as long as their routers behave
// identically.
type soloHarness struct {
	cfg   Config
	r     *Router
	in    [topology.NumPorts]*link.Link
	out   [topology.NumPorts]*link.Link
	rng   *rand.Rand
	cycle int64
	pid   uint64
	seq   uint64

	// Upstream side: credits per (input port, VC) and the unsent flits of
	// the packet each input VC is carrying.
	credits [topology.NumPorts][]int
	pending [topology.NumPorts][][]*flit.Flit
	// Downstream side: the flits buffered behind each (output, VC) and the
	// packet each (output, VC) is receiving (wormhole contiguity).
	held   [topology.NumPorts][][]*flit.Flit
	holder [topology.NumPorts][]uint64
	got    []delivery
	acked  int
}

type soloUpCredit struct {
	h *soloHarness
	p int
}

func (s soloUpCredit) AcceptCredit(vc int) { s.h.credits[s.p][vc]++ }

type soloSink struct {
	h *soloHarness
	p int
}

func (s soloSink) AcceptFlit(f *flit.Flit, vc int) {
	h := s.h
	if len(h.held[s.p][vc]) >= h.cfg.BufferDepth {
		panic(fmt.Sprintf("output %d vc%d overfilled", s.p, vc))
	}
	if f.IsHead() {
		if h.holder[s.p][vc] != 0 {
			panic(fmt.Sprintf("output %d vc%d: packet %d interleaves packet %d", s.p, vc, f.PacketID, h.holder[s.p][vc]))
		}
		h.holder[s.p][vc] = f.PacketID
	} else if h.holder[s.p][vc] != f.PacketID {
		panic(fmt.Sprintf("output %d vc%d: flit of packet %d inside packet %d", s.p, vc, f.PacketID, h.holder[s.p][vc]))
	}
	if f.IsTail() {
		h.holder[s.p][vc] = 0
	}
	h.held[s.p][vc] = append(h.held[s.p][vc], f)
	h.got = append(h.got, delivery{Cycle: h.cycle, Out: s.p, VC: vc, Packet: f.PacketID, Type: f.Type, Pays: len(f.Payloads)})
}

func newSoloHarness(t *testing.T, cfg Config, seed int64) *soloHarness {
	t.Helper()
	h := &soloHarness{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	h.wire(t)
	for p := 0; p < topology.NumPorts; p++ {
		h.credits[p] = make([]int, cfg.VCs)
		h.pending[p] = make([][]*flit.Flit, cfg.VCs)
		h.held[p] = make([][]*flit.Flit, cfg.VCs)
		h.holder[p] = make([]uint64, cfg.VCs)
		for v := range h.credits[p] {
			h.credits[p][v] = cfg.BufferDepth
		}
	}
	return h
}

// wire builds a fresh router and links around the harness.
func (h *soloHarness) wire(t *testing.T) {
	t.Helper()
	r, err := New(0, h.cfg, soloRoute)
	if err != nil {
		t.Fatal(err)
	}
	h.r = r
	for p := 0; p < topology.NumPorts; p++ {
		h.in[p] = link.New(fmt.Sprintf("in%d", p), 1, r.InputSink(topology.Port(p)), soloUpCredit{h, p})
		r.ConnectInput(topology.Port(p), h.in[p])
		h.out[p] = link.New(fmt.Sprintf("out%d", p), 1, soloSink{h, p}, r.CreditSink(topology.Port(p)))
		r.ConnectOutput(topology.Port(p), h.out[p], h.cfg.VCs, h.cfg.BufferDepth)
	}
}

var soloFormat = flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)

// newPacket draws a random unicast, multicast or gather packet.
// Multicast packets enter only on input (0, vc0): VA keeps a multicast
// packet's partial allocations, so two multicast packets could each hold
// a VC the other waits for, a deadlock of the traffic, not of the router.
func (h *soloHarness) newPacket(multicast bool) []*flit.Flit {
	h.pid++
	dst := topology.NodeID(h.rng.Intn(soloNodes))
	pk := flit.Packet{ID: h.pid, PT: flit.Unicast, Src: 0, Dst: dst, Flits: 1 + h.rng.Intn(4)}
	switch h.rng.Intn(4) {
	case 0:
		if !multicast {
			break
		}
		pk.PT = flit.Multicast
		var nodes []topology.NodeID
		for n := 0; n < soloNodes; n++ {
			if h.rng.Intn(4) == 0 {
				nodes = append(nodes, topology.NodeID(n))
			}
		}
		if len(nodes) == 0 {
			nodes = append(nodes, dst)
		}
		pk.MDst = topology.DestSetOf(soloNodes, nodes...)
	case 1:
		capacity := 1 + h.rng.Intn(4)
		pk.PT = flit.Gather
		pk.GatherCapacity = capacity
		pk.Flits = soloFormat.GatherFlits(capacity)
		h.seq++
		pk.Carried = &flit.Payload{Seq: h.seq, Src: 0, Dst: dst, Value: h.seq}
	}
	flits, err := flit.Packetize(pk, soloFormat)
	if err != nil {
		panic(err)
	}
	return flits
}

// step runs one cycle: upstream sends, the router ticks, consumers drain
// and return credits, then every link commits. inject is false while
// draining.
func (h *soloHarness) step(inject bool) {
	c := h.cycle
	if inject && h.rng.Intn(3) == 0 {
		h.seq++
		h.r.OfferGatherPayload(flit.Payload{Seq: h.seq, Src: 0, Dst: topology.NodeID(h.rng.Intn(soloNodes)), Value: h.seq},
			func(flit.Payload) { h.acked++ })
	}
	for p := 0; p < topology.NumPorts; p++ {
		v := h.rng.Intn(h.cfg.VCs)
		if inject && len(h.pending[p][v]) == 0 && h.rng.Intn(2) == 0 {
			h.pending[p][v] = h.newPacket(p == 0 && v == 0)
		}
		if q := h.pending[p][v]; len(q) > 0 && h.credits[p][v] > 0 {
			h.credits[p][v]--
			h.in[p].Send(q[0], v, c)
			h.pending[p][v] = q[1:]
		}
	}
	h.r.Tick(c)
	for p := 0; p < topology.NumPorts; p++ {
		for v := range h.held[p] {
			if len(h.held[p][v]) > 0 && h.rng.Intn(3) == 0 {
				h.held[p][v] = h.held[p][v][1:]
				h.out[p].ReturnCredit(v, c)
			}
		}
	}
	for p := 0; p < topology.NumPorts; p++ {
		h.in[p].Commit(c)
		h.out[p].Commit(c)
	}
	h.cycle++
}

// restore moves the harness onto a freshly built router and links: the
// router's state goes through CaptureState, JSON and RestoreState, the
// links' through CaptureState and RestoreState, while the harness's own
// bookkeeping carries over.
func (h *soloHarness) restore(t *testing.T) {
	t.Helper()
	data, err := json.Marshal(h.r.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	var rs State
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	in, out := h.in, h.out
	h.wire(t)
	ack := func(flit.Payload) { h.acked++ }
	if err := h.r.RestoreState(rs, nil, flit.Endpoints{Nodes: soloNodes}, ack, nil); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < topology.NumPorts; p++ {
		if err := h.in[p].RestoreState(in[p].CaptureState(), nil, flit.Endpoints{Nodes: soloNodes}, h.cfg.VCs); err != nil {
			t.Fatal(err)
		}
		if err := h.out[p].RestoreState(out[p].CaptureState(), nil, flit.Endpoints{Nodes: soloNodes}, h.cfg.VCs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomizedBitmapScheduling drives one router with random unicast,
// adaptive, multicast-fork and gather traffic under random credit
// returns, checking CheckInvariants (which rescans every VC bitmap and
// counter) after every cycle. Midway, one of two identically seeded
// harnesses is moved onto a fresh router through a JSON snapshot
// round-trip; both must then deliver the same flits on the same cycles,
// and every packet must drain.
func TestRandomizedBitmapScheduling(t *testing.T) {
	type policy struct {
		name   string
		mutate func(*Config)
		minVCs int
	}
	policies := []policy{
		{"plain", func(*Config) {}, 1},
		{"gathervc", func(c *Config) { c.GatherVC = c.VCs - 1 }, 2},
		{"vcclasses", func(c *Config) { c.VCClasses = 2 }, 2},
		{"slowstages", func(c *Config) { c.RCDelay, c.VADelay = 2, 3 }, 1},
	}
	cycles := 3000
	if testing.Short() {
		cycles = 800
	}
	for _, vcs := range []int{1, 4, 8} {
		for _, pol := range policies {
			if vcs < pol.minVCs {
				continue
			}
			t.Run(fmt.Sprintf("vcs%d/%s", vcs, pol.name), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.VCs = vcs
				cfg.BufferDepth = 3
				pol.mutate(&cfg)
				seed := int64(vcs*100 + len(pol.name))
				a := newSoloHarness(t, cfg, seed)
				b := newSoloHarness(t, cfg, seed)
				check := func(h *soloHarness) {
					t.Helper()
					if err := h.r.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", h.cycle, err)
					}
				}
				for i := 0; i < cycles; i++ {
					if i == cycles/2 {
						b.restore(t)
						check(b)
					}
					a.step(true)
					b.step(true)
					check(a)
					check(b)
				}
				for i := 0; i < 20*cycles && a.r.BufferedFlits()+b.r.BufferedFlits() > 0; i++ {
					a.step(false)
					b.step(false)
					check(a)
					check(b)
				}
				if n := a.r.BufferedFlits() + b.r.BufferedFlits(); n != 0 {
					t.Fatalf("%d flits never drained", n)
				}
				if !reflect.DeepEqual(a.got, b.got) {
					t.Fatal("restored router's deliveries diverged from the uninterrupted run")
				}
				if a.acked != b.acked || a.r.Counters != b.r.Counters {
					t.Fatalf("restored router diverged: acks %d/%d, counters %+v / %+v",
						a.acked, b.acked, a.r.Counters, b.r.Counters)
				}
				c := &a.r.Counters
				if c.RCComputations.Value() == 0 || c.Crossings.Value() <= c.BufferReads.Value() ||
					c.GatherUploads.Value() == 0 {
					t.Fatalf("traffic mix not exercised: %+v", *c)
				}
			})
		}
	}
}
