// Package router implements the virtual-channel wormhole router of
// Sec. IV of the paper: a Fig. 5 pipeline (route computation, VC
// allocation, switch allocation, switch traversal) with credit-based flow
// control, round-robin separable allocators, multicast-tree forking, and
// the gather extensions — the Gather Load Generator and Gather Payload
// blocks of Fig. 6 that let a passing gather packet pick up the local PE's
// partial-sum payload with zero added pipeline latency (the upload uses the
// body/tail flits' idle RC/VA stage slots).
//
// The router is fabric-agnostic: route computation delegates to a
// RoutingFunc the network layer builds from its topology.Routing, and the
// Route it returns carries the output ports (deterministic branches or
// adaptive alternatives) plus the dateline VC class torus routing needs
// (Config.VCClasses, DESIGN.md §7).
package router

import (
	"errors"
	"fmt"
	"math/bits"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/reduce"
	"gathernoc/internal/ring"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// Config holds the microarchitectural parameters of one router. The zero
// value is not valid; use DefaultConfig as a base.
type Config struct {
	// VCs is the number of virtual channels per input port (Table I: 4).
	VCs int
	// BufferDepth is the per-VC buffer depth in flits (Table I: 4).
	BufferDepth int
	// RCDelay and VADelay are the route-computation and VC-allocation
	// stage occupancies in cycles (>= 1 each). With 1/1 the per-hop header
	// latency is RC+VA+SA/ST+link = 4 cycles, the κ that reproduces the
	// paper's Table II estimates.
	RCDelay int
	VADelay int
	// GatherVC, when >= 0, dedicates that VC index to gather and
	// accumulate packets: collective packets allocate only it and other
	// traffic never does. This is the mitigation sketched in the paper's
	// conclusion for δ timeouts under mixed traffic. -1 disables the
	// reservation.
	GatherVC int
	// GatherQueueCap bounds the Gather Payload station queue (>= 1).
	GatherQueueCap int
	// ReduceQueueCap bounds the accumulation station queue (>= 1), the
	// INA sibling of GatherQueueCap.
	ReduceQueueCap int
	// VCClasses partitions the virtual channels into dateline classes for
	// deadlock-free torus routing: a packet whose Route carries VCClass k
	// may only allocate downstream VCs of class k (VC v belongs to class
	// v*VCClasses/VCs). 0 or 1 disables the partition — every VC is one
	// class, the mesh configuration, where schedules are bit-identical to
	// the pre-partition router. Must not exceed VCs, and is mutually
	// exclusive with GatherVC (a VC cannot be reserved for collectives and
	// pinned to a dateline class at once).
	VCClasses int
}

// DefaultConfig returns the Table I router configuration.
func DefaultConfig() Config {
	return Config{
		VCs:            4,
		BufferDepth:    4,
		RCDelay:        1,
		VADelay:        1,
		GatherVC:       -1,
		GatherQueueCap: 4,
		ReduceQueueCap: 4,
	}
}

// MaxVCs is the most virtual channels a port may have: the pipeline
// stages schedule each port's VCs from one uint64 bitmap.
const MaxVCs = 64

// ErrTooManyVCs is the Validate error for a VC count above MaxVCs.
var ErrTooManyVCs = errors.New("router: VCs exceeds the per-port VC bitmap width")

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("router: VCs must be >= 1, got %d", c.VCs)
	case c.VCs > MaxVCs:
		return fmt.Errorf("%w (%d > %d)", ErrTooManyVCs, c.VCs, MaxVCs)
	case c.BufferDepth < 1:
		return fmt.Errorf("router: BufferDepth must be >= 1, got %d", c.BufferDepth)
	case c.RCDelay < 1 || c.VADelay < 1:
		return fmt.Errorf("router: stage delays must be >= 1, got RC=%d VA=%d", c.RCDelay, c.VADelay)
	case c.GatherVC >= c.VCs:
		return fmt.Errorf("router: GatherVC %d out of range (VCs=%d)", c.GatherVC, c.VCs)
	case c.VCClasses < 0 || c.VCClasses > c.VCs:
		return fmt.Errorf("router: VCClasses %d out of range (VCs=%d)", c.VCClasses, c.VCs)
	case c.VCClasses > 1 && c.GatherVC >= 0:
		return fmt.Errorf("router: GatherVC %d incompatible with VCClasses %d (a VC cannot serve both policies)", c.GatherVC, c.VCClasses)
	}
	return nil
}

// Route describes where a flit leaves the router: one branch for unicast
// and gather packets, one or more for multicast, with LocalPort used for
// ejection to the attached NIC or edge sink.
//
// For adaptive routing algorithms, Adaptive lists alternative productive
// output ports for a single-destination packet; the router then selects
// the alternative with the most downstream credit at route-computation
// time (deterministic: ties break toward the earlier entry) and ignores
// Branches.
//
// VCClass is the dateline virtual-channel class the hop must allocate its
// downstream VC from (see Config.VCClasses and topology.Routing.VCClass);
// it is 0 for every mesh routing and for multicast trees.
type Route struct {
	Branches []topology.MulticastBranch
	Adaptive []topology.Port
	VCClass  int
}

// RoutingFunc computes the Route for a packet's head flit at node cur. The
// network layer supplies it, which lets the fabric extend node addressing
// beyond the raw mesh (e.g. global-buffer sinks past the east edge).
type RoutingFunc func(cur topology.NodeID, f *flit.Flit) Route

// Counters are the router's activity counts; the power model derives
// dynamic energy from them.
type Counters struct {
	BufferWrites   stats.Counter
	BufferReads    stats.Counter
	RCComputations stats.Counter
	VAAllocations  stats.Counter
	SAGrants       stats.Counter
	Crossings      stats.Counter // crossbar traversals (one per staged flit copy)
	GatherUploads  stats.Counter
	GatherReserves stats.Counter
	ReduceMerges   stats.Counter // operands folded into passing accumulate packets
	ReduceReserves stats.Counter
}

type vcStage uint8

const (
	vcIdle vcStage = iota
	vcRC
	vcVA
	vcActive
)

// branchState tracks one output branch of the packet currently holding an
// input VC.
type branchState struct {
	out    topology.Port
	dsts   *topology.DestSet // multicast subset forwarded on this branch
	vc     int               // allocated downstream VC (-1 until VA)
	sent   bool              // current head-of-buffer flit already copied here
	headMD *topology.DestSet // MDst for the head copy on this branch
}

type inputVC struct {
	buf   ring.Ring[*flit.Flit] // fixed capacity BufferDepth, never grows
	stage vcStage
	wait  int // remaining cycles in the current multi-cycle stage

	branches []branchState
	vcClass  int // dateline class of the packet's current hop (VA restriction)

	// Gather Load Generator state (Fig. 3b / Algorithm 1).
	gatherLoad  bool
	gatherEntry *reduce.Entry

	// Accumulation load state: the local operand reserved against the
	// accumulate packet currently holding this VC (INA merge path).
	reduceLoad  bool
	reduceEntry *reduce.Entry
}

func (v *inputVC) head() *flit.Flit {
	if v.buf.Empty() {
		return nil
	}
	return v.buf.Front()
}

type outputPort struct {
	link    *link.Link
	credits []int // per downstream VC
	// owner[vc] identifies the (inPort, inVC) currently holding the
	// downstream VC; -1 when free.
	ownerPort []int
	ownerVC   []int
	// free has bit vc set while ownerPort[vc] < 0.
	free uint64
	// VA policy masks, precomputed from vcAllowed at connection time:
	// classVCs[k] holds dateline class k's VCs (set only on datelined
	// outputs of a VCClasses > 1 router); otherwise collectiveVCs and
	// otherVCs hold the VCs gather/accumulate and all other packets may
	// allocate.
	classVCs      []uint64
	collectiveVCs uint64
	otherVCs      uint64
}

func (o *outputPort) connected() bool { return o.link != nil }

// allowedVCs returns the downstream VCs a packet of type pt on dateline
// class class may allocate on this output (vcAllowed, as a mask).
func (o *outputPort) allowedVCs(pt flit.PacketType, class int) uint64 {
	if o.classVCs != nil {
		if class < 0 || class >= len(o.classVCs) {
			return 0
		}
		return o.classVCs[class]
	}
	if pt == flit.Gather || pt == flit.Accumulate {
		return o.collectiveVCs
	}
	return o.otherVCs
}

// Router is one mesh node's switch. It is a phase-1 (tick) component; its
// outgoing links are the matching phase-2 components.
type Router struct {
	id    topology.NodeID
	cfg   Config
	route RoutingFunc

	inputs  [topology.NumPorts][]inputVC
	inLinks [topology.NumPorts]*link.Link // reverse channels for credit return
	outputs [topology.NumPorts]outputPort

	station  *reduce.Station // gather payloads
	rstation *reduce.Station // accumulate operands
	pool     *flit.Pool      // multicast fork copies; forked originals return here

	saInputArb  [topology.NumPorts]*rrArbiter // per input port, across its VCs
	saOutputArb [topology.NumPorts]*rrArbiter // per output port, across input-port candidates

	wake *sim.Handle // engine wake-up, armed on flit/credit arrival

	// probe, when non-nil, records sampled pipeline-stage events for the
	// flit-lifecycle tracer. Every hook is behind a nil-check, so the
	// telemetry-off path does no extra work (DESIGN.md §11).
	probe *telemetry.Probe

	// Per-input-port VC bitmaps (bit v = input VC v) that drive the
	// pipeline stages in place of (port, VC) scans (DESIGN.md §10):
	//   rcMask:  idle with a head flit at the buffer front, or in vcRC;
	//   vaMask:  in vcVA;
	//   actMask: in vcActive.
	// Stages visit set bits in the order the scans visited VCs, so
	// schedules are bit-identical with the scanning implementation.
	rcMask  [topology.NumPorts]uint64
	vaMask  [topology.NumPorts]uint64
	actMask [topology.NumPorts]uint64

	buffered int // flits held across all input VC buffers (drives Idle)
	loads    int // raised gather/accumulate Load signals awaiting upload

	// Counters is exported for the power model and reports.
	Counters Counters
}

// New constructs a router for node id using the given routing function.
func New(id topology.NodeID, cfg Config, routeFn RoutingFunc) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if routeFn == nil {
		return nil, fmt.Errorf("router %d: nil routing function", id)
	}
	r := &Router{id: id, cfg: cfg, route: routeFn}
	for p := 0; p < topology.NumPorts; p++ {
		// The VC buffer rings stay zero-valued and grow to BufferDepth on
		// first use; acceptFlit bounds occupancy before every push, so
		// they never grow past the configured depth (modulo the ring's
		// power-of-two rounding) and idle VCs cost no backing array.
		r.inputs[p] = make([]inputVC, cfg.VCs)
		r.saInputArb[p] = newRRArbiter(cfg.VCs)
		r.saOutputArb[p] = newRRArbiter(topology.NumPorts)
	}
	r.station = reduce.NewStation(cfg.GatherQueueCap)
	r.rstation = reduce.NewStation(cfg.ReduceQueueCap)
	return r, nil
}

// ID returns the node this router serves.
func (r *Router) ID() topology.NodeID { return r.id }

// SetWake attaches the engine wake handle; flit and credit arrivals arm it
// so a sleeping router is re-evaluated. Routers work without one (nil
// handles ignore Wake), which standalone unit tests rely on.
func (r *Router) SetWake(h *sim.Handle) { r.wake = h }

// SetFlitPool attaches the network's flit pool: multicast fork copies are
// acquired from it and forked originals released back. Routers work
// without one (a nil pool falls back to the garbage collector).
func (r *Router) SetFlitPool(p *flit.Pool) { r.pool = p }

// SetTelemetry attaches the owning shard's telemetry probe (nil disables
// tracing; the default).
func (r *Router) SetTelemetry(p *telemetry.Probe) { r.probe = p }

// MaxVCOccupancy returns the deepest input VC buffer in flits — the
// congestion gauge the telemetry epoch collector snapshots alongside the
// total occupancy.
func (r *Router) MaxVCOccupancy() int {
	m := 0
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			if n := r.inputs[p][v].buf.Len(); n > m {
				m = n
			}
		}
	}
	return m
}

// Idle implements sim.Idler: with every input buffer empty the router's
// tick is a pure no-op (stages only act on buffered flits, the SA arbiters
// only rotate past a winner, and the VA rotation is derived from the cycle
// number), so the engine may skip the router until a flit or credit
// arrives. Buffer occupancy is counted incrementally, so the check is O(1).
func (r *Router) Idle() bool { return r.buffered == 0 }

// ConnectOutput attaches l as the outgoing channel on port p; downstreamDepth
// is the buffer depth of the receiving input VCs (credit initialization).
func (r *Router) ConnectOutput(p topology.Port, l *link.Link, downstreamVCs, downstreamDepth int) {
	if downstreamVCs > MaxVCs {
		panic(fmt.Sprintf("router %d: %d downstream VCs on %s exceed %d", r.id, downstreamVCs, p, MaxVCs))
	}
	o := &r.outputs[p]
	o.link = l
	o.credits = make([]int, downstreamVCs)
	o.ownerPort = make([]int, downstreamVCs)
	o.ownerVC = make([]int, downstreamVCs)
	for v := 0; v < downstreamVCs; v++ {
		o.credits[v] = downstreamDepth
		o.ownerPort[v] = -1
		o.ownerVC[v] = -1
	}
	o.free = o.scanFree()

	datelined := p != topology.LocalPort
	o.classVCs = nil
	if c := r.cfg.VCClasses; c > 1 && datelined {
		o.classVCs = make([]uint64, c)
	}
	o.collectiveVCs, o.otherVCs = 0, 0
	for v := 0; v < downstreamVCs; v++ {
		bit := uint64(1) << uint(v)
		for k := range o.classVCs {
			if r.vcAllowed(flit.Unicast, v, downstreamVCs, k, datelined) {
				o.classVCs[k] |= bit
			}
		}
		if r.vcAllowed(flit.Gather, v, downstreamVCs, 0, datelined) {
			o.collectiveVCs |= bit
		}
		if r.vcAllowed(flit.Unicast, v, downstreamVCs, 0, datelined) {
			o.otherVCs |= bit
		}
	}
}

// ConnectInput records the reverse channel used to return credits for
// flits consumed from input port p.
func (r *Router) ConnectInput(p topology.Port, reverse *link.Link) {
	r.inLinks[p] = reverse
}

// InputSink returns a link.FlitSink delivering into input port p.
func (r *Router) InputSink(p topology.Port) link.FlitSink {
	return &portSink{r: r, port: p}
}

// CreditSink returns a link.CreditSink crediting output port p.
func (r *Router) CreditSink(p topology.Port) link.CreditSink {
	return &portCredit{r: r, port: p}
}

type portSink struct {
	r    *Router
	port topology.Port
}

func (s *portSink) AcceptFlit(f *flit.Flit, vc int) { s.r.acceptFlit(s.port, f, vc) }

type portCredit struct {
	r    *Router
	port topology.Port
}

func (s *portCredit) AcceptCredit(vc int) { s.r.acceptCredit(s.port, vc) }

func (r *Router) acceptFlit(p topology.Port, f *flit.Flit, vc int) {
	in := &r.inputs[p][vc]
	if in.buf.Len() >= r.cfg.BufferDepth {
		// Credit-protocol violation: upstream sent into a full buffer.
		// This is an internal simulator bug, not a runtime condition.
		panic(fmt.Sprintf("router %d: input %s vc%d overflow (%s)", r.id, p, vc, f))
	}
	if in.buf.Empty() && in.stage == vcIdle && f.IsHead() {
		r.rcMask[p] |= 1 << uint(vc)
	}
	in.buf.PushBack(f)
	r.buffered++
	f.Hops++
	r.Counters.BufferWrites.Inc()
	r.wake.Wake()
}

func (r *Router) acceptCredit(p topology.Port, vc int) {
	o := &r.outputs[p]
	if vc < len(o.credits) {
		o.credits[vc]++
	}
	r.wake.Wake()
}

// OfferGatherPayload hands the local PE's payload to the Gather Payload
// station; ack fires when a passing gather packet picked it up. It returns
// false when the station queue is full.
func (r *Router) OfferGatherPayload(p flit.Payload, ack AckFunc) bool {
	return r.station.Offer(p, ack)
}

// RetractGatherPayload removes a not-yet-reserved payload from the station
// (δ-timeout path). It returns false when the payload is gone or already
// reserved by an in-flight packet.
func (r *Router) RetractGatherPayload(seq uint64) bool {
	return r.station.Retract(seq)
}

// GatherBacklog reports how many payloads sit in the station.
func (r *Router) GatherBacklog() int { return r.station.Backlog() }

// OfferReduceOperand hands the local PE's partial-sum operand to the
// accumulation station; ack fires when a passing accumulate packet merged
// it. It returns false when the station queue is full.
func (r *Router) OfferReduceOperand(op flit.Payload, ack reduce.AckFunc) bool {
	return r.rstation.Offer(op, ack)
}

// RetractReduceOperand removes a not-yet-reserved operand from the
// accumulation station (δ-timeout path). It returns false when the operand
// is gone or already reserved by an in-flight packet.
func (r *Router) RetractReduceOperand(seq uint64) bool {
	return r.rstation.Retract(seq)
}

// ReduceBacklog reports how many operands sit in the accumulation station.
func (r *Router) ReduceBacklog() int { return r.rstation.Backlog() }

// BufferedFlits reports the total flits currently held in input buffers;
// the network layer uses it for drain detection.
func (r *Router) BufferedFlits() int { return r.buffered }

// Tick advances the router by one cycle. Stages run in reverse pipeline
// order (gather upload, SA/ST, VA, RC) so a flit progresses through at most
// one stage per cycle.
//
// An idle router's tick is a pure no-op (the Idle contract the sleep/wake
// engine already relies on), so it returns immediately; a busy router's
// stages visit only the VCs set in their bitmaps, so a stage with nothing
// to do costs a few word tests.
func (r *Router) Tick(cycle int64) {
	if r.buffered == 0 {
		return
	}
	if r.loads > 0 {
		r.gatherUploadStage(cycle)
	}
	r.switchStage(cycle)
	r.vaStage(cycle)
	r.rcStage(cycle)
}

// gatherUploadStage writes reserved payloads into head-of-buffer body/tail
// flits of loaded gather packets, and folds reserved operands into
// head-of-buffer accumulate flits (the INA merge). Per Sec. IV this reuses
// the RC/VA slots that body flits leave idle, so it costs no extra cycles:
// the upload or merge happens while the flit waits for switch allocation.
func (r *Router) gatherUploadStage(cycle int64) {
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.inputs[p] {
			vc := &r.inputs[p][v]
			if vc.gatherLoad && vc.gatherEntry != nil {
				f := vc.head()
				if f != nil && f.PT == flit.Gather && !f.Type.IsHead() &&
					f.AddPayload(vc.gatherEntry.Operand()) {
					r.station.Complete(vc.gatherEntry)
					r.Counters.GatherUploads.Inc()
					if r.probe != nil && r.probe.Sampled(f.PacketID) {
						r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvGatherUpload,
							Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(f.Payloads[len(f.Payloads)-1].Src)})
					}
					vc.gatherEntry = nil
					vc.gatherLoad = false
					r.loads--
				}
			}
			if vc.reduceLoad && vc.reduceEntry != nil {
				f := vc.head()
				if f != nil && f.PT == flit.Accumulate && !f.Type.IsHead() &&
					f.MergePayload(vc.reduceEntry.Operand()) {
					r.rstation.Complete(vc.reduceEntry)
					r.Counters.ReduceMerges.Inc()
					if r.probe != nil && r.probe.Sampled(f.PacketID) {
						r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvReduceMerge,
							Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(vc.reduceEntry.Operand().Src)})
					}
					vc.reduceEntry = nil
					vc.reduceLoad = false
					r.loads--
				}
			}
		}
	}
}

// rcStage starts and completes route computation for heads of newly
// arrived packets, and runs the Gather Load Generator on gather headers
// (Algorithm 1, lines 1-4). It visits ports in ascending order and each
// port's rcMask VCs by ascending index.
func (r *Router) rcStage(cycle int64) {
	for p := 0; p < topology.NumPorts; p++ {
		for m := r.rcMask[p]; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			vc := &r.inputs[p][v]
			if vc.stage == vcIdle {
				vc.stage = vcRC
				vc.wait = r.cfg.RCDelay - 1
			} else if vc.wait > 0 {
				vc.wait--
			}
			if vc.wait == 0 {
				r.completeRC(p, v, cycle)
			}
		}
	}
}

func (r *Router) completeRC(p, v int, cycle int64) {
	vc := &r.inputs[p][v]
	f := vc.head()
	rt := r.route(r.id, f)
	vc.vcClass = rt.VCClass
	vc.branches = vc.branches[:0]
	if len(rt.Adaptive) > 0 {
		vc.branches = append(vc.branches, branchState{out: r.pickAdaptive(rt.Adaptive), vc: -1})
	} else {
		for _, br := range rt.Branches {
			bs := branchState{out: br.Out, dsts: br.Dsts, vc: -1}
			if f.PT == flit.Multicast {
				bs.headMD = br.Dsts
			}
			vc.branches = append(vc.branches, bs)
		}
	}
	r.Counters.RCComputations.Inc()
	if r.probe != nil && r.probe.Sampled(f.PacketID) {
		r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvRC,
			Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id)})
	}

	// Gather Load Generator: reserve the local payload against this packet
	// and decrement ASpace in the header (Fig. 3b). The paper splits the
	// load-signal generation (RC stage) and the ASpace update (VA stage);
	// both are internal to the head's pipeline transit, so we apply them
	// together at RC completion with identical external timing.
	if f.PT == flit.Gather && f.IsHead() && f.ASpace >= 1 {
		if e, ok := r.station.ReserveByDst(f.Dst); ok {
			f.ASpace--
			vc.gatherLoad = true
			vc.gatherEntry = e
			r.loads++
			r.Counters.GatherReserves.Inc()
		}
	}

	// Accumulation load: reserve the local operand against a passing
	// accumulate header with merge budget left, decrementing ASpace —
	// the INA twin of the Gather Load Generator, with the reservation
	// additionally matched on the packet's reduction ID.
	if f.PT == flit.Accumulate && f.IsHead() && f.ASpace >= 1 {
		if e, ok := r.rstation.Reserve(f.Dst, f.ReduceID); ok {
			f.ASpace--
			vc.reduceLoad = true
			vc.reduceEntry = e
			r.loads++
			r.Counters.ReduceReserves.Inc()
		}
	}

	vc.stage = vcVA
	vc.wait = r.cfg.VADelay - 1
	r.rcMask[p] &^= 1 << uint(v)
	r.vaMask[p] |= 1 << uint(v)
}

// vaStage allocates downstream VCs to packets that completed RC. Multicast
// packets must secure a VC on every branch before activating; partial
// allocations persist across cycles.
//
// The visit order rotates once per cycle over the flattened (port, VC)
// index for fairness: from start = cycle mod (ports x VCs) upward,
// wrapping. The rotation is derived from the cycle number rather than
// stored, which keeps an idle router's tick stateless — a prerequisite
// for sleep/wake scheduling to be bit-identical with the always-tick
// engine. Walking the vaMask bits at or above the start VC on the start
// port, then every later port, then the start port's bits below the start
// VC visits the vcVA VCs in exactly that order; a visit only ever clears
// its own bit, so each port's mask can be read once.
func (r *Router) vaStage(cycle int64) {
	nv := r.cfg.VCs
	start := int(cycle % int64(topology.NumPorts*nv))
	sp, sv := start/nv, start%nv
	below := lowBits(sv)
	for m := r.vaMask[sp] &^ below; m != 0; m &= m - 1 {
		r.allocateVC(sp, bits.TrailingZeros64(m), cycle)
	}
	for i := 1; i < topology.NumPorts; i++ {
		p := (sp + i) % topology.NumPorts
		for m := r.vaMask[p]; m != 0; m &= m - 1 {
			r.allocateVC(p, bits.TrailingZeros64(m), cycle)
		}
	}
	for m := r.vaMask[sp] & below; m != 0; m &= m - 1 {
		r.allocateVC(sp, bits.TrailingZeros64(m), cycle)
	}
}

// allocateVC runs one VA visit of input VC (p, v), which is in vcVA: each
// unallocated branch takes the lowest free downstream VC its policy
// allows, and the VC activates once every branch holds one.
func (r *Router) allocateVC(p, v int, cycle int64) {
	vc := &r.inputs[p][v]
	if vc.wait > 0 {
		vc.wait--
		return
	}
	f := vc.head()
	if f == nil {
		return
	}
	done := true
	for i := range vc.branches {
		br := &vc.branches[i]
		if br.vc >= 0 {
			continue
		}
		out := &r.outputs[br.out]
		if !out.connected() {
			panic(fmt.Sprintf("router %d: route to unconnected port %s for %s", r.id, br.out, f))
		}
		m := out.free & out.allowedVCs(f.PT, vc.vcClass)
		if m == 0 {
			done = false
			continue
		}
		alloc := bits.TrailingZeros64(m)
		out.free &^= 1 << uint(alloc)
		out.ownerPort[alloc] = p
		out.ownerVC[alloc] = v
		br.vc = alloc
		r.Counters.VAAllocations.Inc()
	}
	if done {
		vc.stage = vcActive
		r.vaMask[p] &^= 1 << uint(v)
		r.actMask[p] |= 1 << uint(v)
		if r.probe != nil && f.IsHead() && r.probe.Sampled(f.PacketID) {
			r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvVA,
				Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id)})
		}
	}
}

// pickAdaptive selects the productive port with the most downstream
// credit; ties break toward the earlier alternative, keeping the
// simulation deterministic.
func (r *Router) pickAdaptive(alts []topology.Port) topology.Port {
	best := alts[0]
	bestCredit := -1
	for _, p := range alts {
		out := &r.outputs[p]
		if !out.connected() {
			continue
		}
		total := 0
		for _, c := range out.credits {
			total += c
		}
		if total > bestCredit {
			best = p
			bestCredit = total
		}
	}
	return best
}

// vcAllowed applies the downstream-VC policies for a channel with nVCs
// virtual channels. With VCClasses > 1 the VCs are partitioned into
// dateline classes and the packet may only allocate within class (the
// torus deadlock-avoidance scheme); otherwise the dedicated-collective-VC
// policy applies: gather and accumulate packets share the reserved VC,
// all other traffic keeps off it. The two policies are mutually exclusive
// (Config.Validate).
//
// datelined is false for the ejection channel (the LocalPort output):
// ejectors drain unconditionally, so ejection channels are pure sinks of
// the dependency graph and need no class partition — restricting them
// would halve ejection parallelism on the torus for nothing.
func (r *Router) vcAllowed(pt flit.PacketType, vc, nVCs, class int, datelined bool) bool {
	if c := r.cfg.VCClasses; c > 1 && datelined {
		return vc*c/nVCs == class
	}
	g := r.cfg.GatherVC
	if g < 0 || g >= nVCs {
		return true
	}
	if pt == flit.Gather || pt == flit.Accumulate {
		return vc == g
	}
	return vc != g
}

// switchStage performs switch allocation and traversal: per input port one
// candidate VC (round-robin), per output port one grant (round-robin);
// granted flits are copied onto their branch links and retired once every
// branch has been served.
func (r *Router) switchStage(cycle int64) {
	// Input arbitration: one candidate VC per input port, the first
	// active VC at or after the arbiter's rotation (wrapping) with an
	// unserved credited branch. The candidate posts a request bit, per
	// input port, on every output it has such a branch to; branch records
	// which branch that is. Both arbitration rounds rotate exactly as the
	// per-VC and per-port scans they replace did, so grant rotations
	// replay identically.
	var req [topology.NumPorts]uint8
	var branch [topology.NumPorts][topology.NumPorts]int8 // [out][inPort]
	var candidate [topology.NumPorts]int
	requested := false
	for p := 0; p < topology.NumPorts; p++ {
		act := r.actMask[p]
		if act == 0 {
			continue
		}
		arb := r.saInputArb[p]
		below := lowBits(arb.next)
		v := r.postRequests(p, act&^below, &req, &branch)
		if v < 0 {
			v = r.postRequests(p, act&below, &req, &branch)
		}
		if v < 0 {
			continue
		}
		arb.advance(v)
		candidate[p] = v
		requested = true
	}
	if !requested {
		return
	}

	// Output arbitration: for each output port, grant one requesting input.
	type grant struct {
		inPort int
		inVC   int
		branch int
	}
	var grants [topology.NumPorts]grant
	nGrants := 0
	for out := 0; out < topology.NumPorts; out++ {
		in := r.saOutputArb[out].grant(uint64(req[out]))
		if in < 0 {
			continue
		}
		grants[nGrants] = grant{inPort: in, inVC: candidate[in], branch: int(branch[out][in])}
		nGrants++
		r.Counters.SAGrants.Inc()
	}

	// Switch traversal: copy flits onto links, then retire fully-served
	// flits. touched records input VCs that sent at least one copy this
	// cycle (a multicast flit may win several output ports at once); it is
	// iterated in input-port order to keep the simulation deterministic.
	var touched [topology.NumPorts]int
	for p := range touched {
		touched[p] = -1
	}
	for _, g := range grants[:nGrants] {
		vc := &r.inputs[g.inPort][g.inVC]
		f := vc.head()
		br := &vc.branches[g.branch]
		out := &r.outputs[br.out]

		copyF := r.flitForBranch(f, br, len(vc.branches) > 1)
		out.link.Send(copyF, br.vc, cycle)
		out.credits[br.vc]--
		if out.credits[br.vc] < 0 {
			panic(fmt.Sprintf("router %d: negative credit on %s vc%d", r.id, br.out, br.vc))
		}
		br.sent = true
		r.Counters.Crossings.Inc()
		if r.probe != nil && f.IsHead() && r.probe.Sampled(f.PacketID) {
			r.probe.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvSA,
				Packet: f.PacketID, Tag: f.Tag, Loc: int32(r.id), Aux: int64(br.out)})
		}

		if f.IsTail() {
			// Free the downstream VC at this branch once its copy of the
			// tail has departed.
			out.ownerPort[br.vc] = -1
			out.ownerVC[br.vc] = -1
			out.free |= 1 << uint(br.vc)
		}
		touched[g.inPort] = g.inVC
	}

	for p, v := range touched {
		if v < 0 {
			continue
		}
		vc := &r.inputs[p][v]
		if !r.allBranchesSent(vc) {
			continue
		}
		f := vc.buf.PopFront()
		r.buffered--
		forked := len(vc.branches) > 1
		r.Counters.BufferReads.Inc()
		if r.inLinks[p] != nil {
			r.inLinks[p].ReturnCredit(v, cycle)
		}
		for i := range vc.branches {
			vc.branches[i].sent = false
		}
		if f.IsTail() {
			if vc.gatherLoad {
				if vc.gatherEntry != nil {
					// The packet left before the upload could complete;
					// return the payload so the δ-timeout can recover it.
					r.station.Release(vc.gatherEntry)
					vc.gatherEntry = nil
				}
				vc.gatherLoad = false
				r.loads--
			}
			if vc.reduceLoad {
				if vc.reduceEntry != nil {
					r.rstation.Release(vc.reduceEntry)
					vc.reduceEntry = nil
				}
				vc.reduceLoad = false
				r.loads--
			}
			vc.branches = vc.branches[:0]
			vc.stage = vcIdle
			r.actMask[p] &^= 1 << uint(v)
			if h := vc.head(); h != nil && h.IsHead() {
				// The next packet's head is already queued behind the
				// tail: it starts RC in this tick's rcStage.
				r.rcMask[p] |= 1 << uint(v)
			}
		}
		if forked {
			// Forked packets sent pool copies on every branch; the
			// original retires here without ever leaving the router.
			// Released last: Release resets the flit.
			r.pool.Release(f)
		}
	}
}

// postRequests visits the active VCs in m of input port p by ascending
// index and stops at the first with a flit that can move this cycle (an
// unserved branch with downstream credit). It returns that VC, having set
// input p's bit in req[out] and branch[out][p] for the first such branch
// to each output out, or -1 when no VC in m can move.
func (r *Router) postRequests(p int, m uint64, req *[topology.NumPorts]uint8, branch *[topology.NumPorts][topology.NumPorts]int8) int {
	for ; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		vc := &r.inputs[p][v]
		if vc.buf.Empty() {
			continue
		}
		posted := false
		for i := range vc.branches {
			br := &vc.branches[i]
			if br.sent || r.outputs[br.out].credits[br.vc] <= 0 || req[br.out]&(1<<uint(p)) != 0 {
				continue
			}
			req[br.out] |= 1 << uint(p)
			branch[br.out][p] = int8(i)
			posted = true
		}
		if posted {
			return v
		}
	}
	return -1
}

// allBranchesSent reports whether the head flit has been copied to every
// branch.
func (r *Router) allBranchesSent(vc *inputVC) bool {
	if len(vc.branches) == 0 {
		return false
	}
	for i := range vc.branches {
		if !vc.branches[i].sent {
			return false
		}
	}
	return true
}

// flitForBranch returns the flit instance to send on a branch: the original
// for single-branch packets, a copy (with the branch's MDst subset on head
// flits) when the packet forks.
func (r *Router) flitForBranch(f *flit.Flit, br *branchState, fork bool) *flit.Flit {
	if !fork {
		if f.IsHead() && f.PT == flit.Multicast && br.headMD != nil {
			f.MDst = br.headMD
		}
		return f
	}
	c := r.pool.Acquire()
	payloads := append(c.Payloads[:0], f.Payloads...)
	*c = *f
	c.Payloads = payloads
	if c.IsHead() && c.PT == flit.Multicast {
		c.MDst = br.headMD
	}
	return c
}
