package noc

import (
	"bytes"
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/nic"
	"gathernoc/internal/router"
	"gathernoc/internal/snapcodec"
	"gathernoc/internal/topology"
)

// SnapshotVersion tags the snapshot envelope. Any change to a component
// State layout, to the encoding or to the capture/restore rules must bump
// it; DecodeSnapshot and Restore reject snapshots from other versions
// instead of misinterpreting them.
const SnapshotVersion = "gathernoc/noc.Snapshot/v2"

// snapshotMagic opens every encoded snapshot; the snapcodec encoding of
// the Snapshot struct follows, led by its Version field.
const snapshotMagic = "GNOCSNAP"

// Snapshot is the complete serialized mutable state of a Network at a
// cycle boundary: the engine clock, the per-NIC packet-id counters, and
// every router, link, NIC and sink in deterministic construction order.
// Immutable structure — topology, routing, wiring, capacities — is not
// serialized: Restore applies a snapshot onto a freshly constructed
// Network of the same canonical configuration (enforced via ConfigHash,
// so result-invariant knobs like Shards may differ between the capturing
// and restoring processes).
type Snapshot struct {
	Version    string
	ConfigHash string
	// Config is the capturing network's configuration (telemetry cleared:
	// snapshots reject telemetry-enabled networks), letting a resuming
	// process reconstruct the network without out-of-band state.
	Config  Config
	Cycle   int64
	PidSeq  []uint64
	Routers []router.State
	Links   []link.State
	NICs    []nic.State
	Sinks   []nic.EjectorState
}

// Snapshot captures the network's complete mutable state. It must be
// called at a cycle boundary (between engine steps — never from inside a
// Tick or Commit). Telemetry-enabled networks are rejected: the
// collector's epoch ring and trace buffers are append-only observations
// of a specific run, and checkpointing them is not supported.
func (nw *Network) Snapshot() (*Snapshot, error) {
	if nw.tele != nil {
		return nil, fmt.Errorf("noc: snapshot of a telemetry-enabled network is unsupported")
	}
	s := &Snapshot{
		Version:    SnapshotVersion,
		ConfigHash: nw.cfg.Hash(),
		Config:     nw.cfg,
		Cycle:      nw.engine.Cycle(),
		PidSeq:     append([]uint64(nil), nw.pidSeq...),
	}
	s.Config.Telemetry = nil
	s.Routers = make([]router.State, len(nw.routers))
	for i, r := range nw.routers {
		s.Routers[i] = r.CaptureState()
	}
	s.Links = make([]link.State, len(nw.links))
	for i, l := range nw.links {
		s.Links[i] = l.CaptureState()
	}
	s.NICs = make([]nic.State, len(nw.nics))
	for i, n := range nw.nics {
		ns, err := n.CaptureState()
		if err != nil {
			return nil, err
		}
		s.NICs[i] = ns
	}
	for _, sk := range nw.sinks {
		es, err := sk.ej.CaptureState()
		if err != nil {
			return nil, err
		}
		s.Sinks = append(s.Sinks, es)
	}
	return s, nil
}

// Restore applies a snapshot onto this network, which must be freshly
// constructed (no cycles run) from a configuration with the same
// canonical hash as the capturing one — shard count and the other
// result-invariant knobs may differ, everything else may not. All
// restored flits are acquired from this network's pool, so the pool's
// live accounting balances exactly as in an uninterrupted run.
func (nw *Network) Restore(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("noc: snapshot version %q, want %q", s.Version, SnapshotVersion)
	}
	if h := nw.cfg.Hash(); s.ConfigHash != h {
		return fmt.Errorf("noc: snapshot config hash %.12s does not match network config hash %.12s", s.ConfigHash, h)
	}
	if nw.engine.Cycle() != 0 {
		return fmt.Errorf("noc: restore target must be a fresh network (engine at cycle %d)", nw.engine.Cycle())
	}
	if nw.tele != nil {
		return fmt.Errorf("noc: restore onto a telemetry-enabled network is unsupported")
	}
	if s.Cycle < 0 {
		return fmt.Errorf("noc: snapshot at negative cycle %d", s.Cycle)
	}
	if len(s.Routers) != len(nw.routers) || len(s.Links) != len(nw.links) ||
		len(s.NICs) != len(nw.nics) || len(s.Sinks) != len(nw.sinks) ||
		len(s.PidSeq) != len(nw.pidSeq) {
		return fmt.Errorf("noc: snapshot shape mismatch (%d/%d routers, %d/%d links, %d/%d nics, %d/%d sinks)",
			len(s.Routers), len(nw.routers), len(s.Links), len(nw.links),
			len(s.NICs), len(nw.nics), len(s.Sinks), len(nw.sinks))
	}
	if err := nw.checkLinks(s); err != nil {
		return err
	}
	copy(nw.pidSeq, s.PidSeq)
	ep := flit.Endpoints{Nodes: nw.topo.NumNodes(), Sinks: len(nw.sinks)}
	for i, r := range nw.routers {
		n := nw.nics[i]
		if err := r.RestoreState(s.Routers[i], nw.poolFor(nw.shardOfNode(r.ID())), ep,
			n.GatherAckFunc(), n.ReduceAckFunc()); err != nil {
			return err
		}
	}
	for i, l := range nw.links {
		if err := l.RestoreState(s.Links[i], nw.poolFor(nw.linkRecs[i].downShard), ep, nw.cfg.Router.VCs); err != nil {
			return err
		}
	}
	for i, n := range nw.nics {
		if err := n.RestoreState(s.NICs[i], ep); err != nil {
			return err
		}
	}
	for i, sk := range nw.sinks {
		if err := sk.ej.RestoreState(s.Sinks[i], ep); err != nil {
			return err
		}
	}
	nw.engine.RestoreCycle(s.Cycle)
	return nil
}

// checkLinks verifies what Restore can only see across a link's two
// ends. Flits on a link into a router are still to be routed
// (flit.State.CheckRoutable). And credits are conserved per VC: the
// upstream credit counter and the owed credits (neither negative), the
// flits and credits in flight and the downstream buffer's occupancy add
// up to the buffer depth, as they do at every cycle boundary of a run.
// A snapshot breaking it would overflow a buffer or starve a VC cycles
// after the restore, so it is refused before anything is mutated.
func (nw *Network) checkLinks(s *Snapshot) error {
	vcs, depth := nw.cfg.Router.VCs, nw.cfg.Router.BufferDepth
	routerInput := func(id topology.NodeID, p topology.Port) []int {
		if in := s.Routers[id].Inputs; len(in) == topology.NumPorts {
			occ := make([]int, len(in[p]))
			for v, vs := range in[p] {
				occ[v] = len(vs.Flits)
			}
			return occ
		}
		return nil
	}
	routerCredits := func(id topology.NodeID, p topology.Port) []int {
		if out := s.Routers[id].Outputs; len(out) == topology.NumPorts {
			return out[p].Credits
		}
		return nil
	}
	ejector := func(es *nic.EjectorState) []int {
		occ := make([]int, len(es.Bufs))
		for v, buf := range es.Bufs {
			occ[v] = len(buf)
		}
		return occ
	}
	for i, rec := range nw.linkRecs {
		var up, down []int
		switch rec.kind {
		case fabricLink:
			up, down = routerCredits(rec.upID, rec.outPort), routerInput(rec.downID, rec.outPort.Opposite())
		case injectLink:
			up, down = s.NICs[rec.upID].Credits, routerInput(rec.downID, topology.LocalPort)
		case ejectLink:
			up, down = routerCredits(rec.upID, topology.LocalPort), ejector(&s.NICs[rec.downID].Ejector)
		case sinkLink:
			up, down = routerCredits(rec.upID, topology.EastPort), ejector(&s.Sinks[int(rec.downID)-len(nw.routers)])
		}
		if len(up) != vcs || len(down) != vcs {
			return fmt.Errorf("noc: snapshot link %s has %d/%d credit and buffer VCs, want %d",
				rec.l.Name(), len(up), len(down), vcs)
		}
		ls := &s.Links[i]
		flight := make([]int, vcs)
		for j := range ls.Flits {
			in := &ls.Flits[j]
			if in.VC >= 0 && in.VC < vcs {
				flight[in.VC]++
			}
			if rec.kind == fabricLink || rec.kind == injectLink {
				if err := in.Flit.CheckRoutable(); err != nil {
					return fmt.Errorf("noc: snapshot link %s: %w", rec.l.Name(), err)
				}
			}
		}
		for _, c := range ls.Credits {
			if c.VC >= 0 && c.VC < vcs {
				flight[c.VC]++
			}
		}
		for v, n := range ls.OwedCredits {
			if n < 0 {
				return fmt.Errorf("noc: snapshot link %s owes %d credits on vc%d", rec.l.Name(), n, v)
			}
			if v < vcs {
				flight[v] += n
			}
		}
		for v := range flight {
			if n := up[v] + down[v] + flight[v]; up[v] < 0 || n != depth {
				return fmt.Errorf("noc: snapshot link %s vc%d: upstream credit %d, %d buffered, %d in flight or owed: %d buffer slots, want %d",
					rec.l.Name(), v, up[v], down[v], flight[v], n, depth)
			}
		}
	}
	return nil
}

// poolFor returns the flit pool view owned by shard sh (the root pool on
// sequential networks) — the same pool the shard's components were wired
// with, so restored flits land in the view that will release them.
func (nw *Network) poolFor(sh int) *flit.Pool {
	if nw.pools == nil {
		return nw.pool
	}
	return nw.pools[sh]
}

// Fork clones the network mid-run: a new Network is built from the same
// configuration and the current state is copied onto it in memory. The
// fork owns all of its state — flits are acquired from its own pool,
// destination sets and statistics are deep-copied, station entries are
// re-acked through the fork's own NICs — so the original and the fork
// may run on independently (warm-start reuse: simulate a shared prefix
// once, fork per divergent suffix). Callers that attach drivers or
// controllers must re-attach equivalents to the fork; only fabric state
// is cloned. Close the fork when done (sharded engines own goroutines).
func (nw *Network) Fork() (*Network, error) {
	s, err := nw.Snapshot()
	if err != nil {
		return nil, err
	}
	clone, err := New(nw.cfg)
	if err != nil {
		return nil, err
	}
	if err := clone.Restore(s); err != nil {
		clone.Close()
		return nil, err
	}
	return clone, nil
}

// EncodeSnapshot serializes a snapshot in the binary snapshot format
// (DESIGN.md §14): the magic, then the snapcodec encoding of the
// Snapshot — Version, ConfigHash and Config first, then the state. The
// encoding is canonical (one byte string per state), fit for content
// addressing and byte comparison.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	e := snapcodec.NewEncoder([]byte(snapshotMagic))
	if err := e.Encode(s); err != nil {
		return nil, fmt.Errorf("noc: encoding snapshot: %w", err)
	}
	return e.Bytes(), nil
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot. The
// version is checked before the rest of the layout is trusted, and a
// JSON snapshot of an earlier version is rejected by name.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	body, ok := bytes.CutPrefix(data, []byte(snapshotMagic))
	if !ok {
		return nil, foreignSnapshot(data)
	}
	d := snapcodec.NewDecoder(body)
	if v := d.String(); v != SnapshotVersion && d.Err() == nil {
		return nil, fmt.Errorf("noc: snapshot version %q, want %q", v, SnapshotVersion)
	}
	var s Snapshot
	if err := snapcodec.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("noc: decoding snapshot: %w", err)
	}
	return &s, nil
}

// foreignSnapshot describes input without the binary magic. Snapshots
// before v2 were JSON objects whose Version field came first; the
// version is read from the text so the error names it.
func foreignSnapshot(data []byte) error {
	const key = `"Version":"`
	if len(data) > 0 && data[0] == '{' {
		if i := bytes.Index(data, []byte(key)); i >= 0 {
			rest := data[i+len(key):]
			if j := bytes.IndexByte(rest, '"'); j >= 0 && j <= 64 {
				return fmt.Errorf("noc: snapshot version %q (JSON), want %q", rest[:j], SnapshotVersion)
			}
		}
	}
	return fmt.Errorf("noc: not a %s snapshot (missing magic)", SnapshotVersion)
}
