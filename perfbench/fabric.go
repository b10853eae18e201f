package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// newFabric builds a network, counting the construction as set-up.
func newFabric(o *opRun, cfg noc.Config) (*noc.Network, error) {
	m := o.begin("noc.New")
	nw, err := noc.New(cfg)
	d := o.end(m)
	o.st.setup += d
	o.add("noc.new_s", d.Seconds())
	o.add("noc.new_calls", 1)
	return nw, err
}

// stepped records host time spent stepping a fabric for some cycles.
func (o *opRun) stepped(d time.Duration, cycles int64) {
	o.st.step += d
	o.st.cycles += cycles
}

// engineDone reads an engine's scheduling counters into the per-layer
// metrics once the engine has stopped stepping.
func (o *opRun) engineDone(nw *noc.Network) {
	eng := nw.Engine()
	o.add("sim.evaluated", float64(eng.Evaluated()))
	o.add("sim.skipped", float64(eng.Skipped()))
	if o.traced() {
		o.st.layer["sim.shards"] = max(o.st.layer["sim.shards"], float64(nw.Config().EffectiveShards()))
	}
}

// fabricDone reads a finished fabric's activity: link traversals for the
// end-to-end rate, and (traced) the router, link and NIC counters.
func (o *opRun) fabricDone(nw *noc.Network) {
	o.engineDone(nw)
	a := nw.Activity()
	o.st.linkFlits += a.LinkFlits
	if !o.traced() {
		return
	}
	var uploads uint64
	for id := 0; id < nw.Mesh().NumNodes(); id++ {
		uploads += nw.Router(topology.NodeID(id)).Counters.GatherUploads.Value()
	}
	o.add("router.buffer_writes", float64(a.BufferWrites))
	o.add("router.rc", float64(a.RCComputations))
	o.add("router.va", float64(a.VAAllocations))
	o.add("router.sa_grants", float64(a.SAGrants))
	o.add("router.crossings", float64(a.Crossings))
	o.add("router.gather_uploads", float64(uploads))
	o.add("link.flits", float64(a.LinkFlits))
	o.add("nic.packets", float64(a.PacketsSent))
	o.add("nic.flits", float64(a.FlitsSent))
}

// checkpoint captures and encodes a fabric — the `nocsim -checkpoint`
// write path — and records the time as one checkpoint write.
func checkpoint(o *opRun, nw *noc.Network) ([]byte, error) {
	m := o.begin("noc.Network.Snapshot")
	snap, err := nw.Snapshot()
	ds := o.end(m)
	if err != nil {
		return nil, err
	}
	m = o.begin("noc.EncodeSnapshot")
	data, err := noc.EncodeSnapshot(snap)
	de := o.end(m)
	o.st.ckptMS = append(o.st.ckptMS, float64((ds+de).Nanoseconds())/1e6)
	o.add("noc.snapshot_s", ds.Seconds())
	o.add("noc.encode_s", de.Seconds())
	o.add("noc.checkpoints", 1)
	if o.traced() {
		o.st.layer["noc.snapshot_bytes"] = float64(len(data))
	}
	return data, err
}

// resume decodes a checkpoint onto a fresh fabric of the same config and
// records decode+restore as one resume. It then checks that re-encoding
// the restored fabric reproduces the checkpoint bytes.
func resume(o *opRun, fresh *noc.Network, data []byte) error {
	m := o.begin("noc.DecodeSnapshot")
	snap, err := noc.DecodeSnapshot(data)
	dd := o.end(m)
	if err != nil {
		return err
	}
	m = o.begin("noc.Network.Restore")
	err = fresh.Restore(snap)
	dr := o.end(m)
	if err != nil {
		return err
	}
	o.st.resumeS = append(o.st.resumeS, (dd + dr).Seconds())
	o.add("noc.decode_s", dd.Seconds())
	o.add("noc.restore_s", dr.Seconds())

	m = o.begin("check.reencode")
	defer o.end(m)
	again, err := fresh.Snapshot()
	if err != nil {
		return err
	}
	redata, err := noc.EncodeSnapshot(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(redata, data) {
		return fmt.Errorf("restored fabric re-encodes to %d bytes that differ from the %d-byte checkpoint", len(redata), len(data))
	}
	return nil
}

// probeCheckpoint checkpoints a finished fabric reps times and resumes
// the checkpoint reps times onto fresh fabrics: one operation that
// measures the snapshot layer on workloads that do not otherwise use it.
func probeCheckpoint(o *opRun, nw *noc.Network, reps int) {
	m := o.begin("probe.checkpoint")
	defer o.end(m)
	var data []byte
	var err error
	for r := 0; r < reps && err == nil; r++ {
		data, err = checkpoint(o, nw)
	}
	for r := 0; r < reps && err == nil; r++ {
		var fresh *noc.Network
		if fresh, err = newFabric(o, nw.Config()); err == nil {
			err = resume(o, fresh, data)
			fresh.Close()
		}
	}
	o.check(err == nil, "checkpoint probe: %v", err)
}

// digest is a short content hash of a JSON-encodable result.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkDigest records a workload's result digest and, at the default
// seed, compares it with the pinned one.
func checkDigest(o *opRun, pinned string, v any) {
	o.st.digest = digest(v)
	if pinned != "" && o.seed == defaultSeed {
		o.check(o.st.digest == pinned, "result digest %s, pinned %s", o.st.digest, pinned)
	}
}

// provenance identifies where and from what code a run's numbers came.
type provenance struct {
	Revision     string   `json:"revision"`
	SourceDigest string   `json:"source_digest"`
	GoVersion    string   `json:"go"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"num_cpu"`
	CPU          string   `json:"cpu"`
	ConfigHashes []string `json:"config_hashes"`
}

func collectProvenance(root string, configs []noc.Config) provenance {
	p := provenance{
		Revision:     "unknown",
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          cpuModel(),
		SourceDigest: sourceDigest(root),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Revision += "+modified"
		}
	}
	for _, c := range configs {
		p.ConfigHashes = append(p.ConfigHashes, c.Hash())
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the repository's Go sources and module files, which
// identifies the code where no VCS revision was stamped into the build
// (a checkout without version control).
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
