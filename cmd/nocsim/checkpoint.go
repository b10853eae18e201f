package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"gathernoc/internal/noc"
	"gathernoc/internal/snapcodec"
	"gathernoc/internal/traffic"
)

// checkpointMagic opens a nocsim checkpoint file. The binary file
// continues with the header (a snapcodec string holding the JSON of
// checkpointHeader), the generator state in the snapshot codec, and the
// network snapshot (noc.EncodeSnapshot) to the end of the file.
const checkpointMagic = "gathernoc/nocsim.Checkpoint/v2\n"

// checkpointHeader is the small JSON part of a checkpoint. The traffic
// pattern is stored by name: Pattern in GeneratorConfig is an interface,
// which the snapshot codec does not encode, and is cleared before
// encoding; a resuming process reconstructs it against the restored
// network's topology.
type checkpointHeader struct {
	Pattern string
	Traffic traffic.GeneratorConfig
}

// checkpointFile is a decoded nocsim checkpoint: the full network
// snapshot plus the synthetic-traffic workload state riding above it.
type checkpointFile struct {
	checkpointHeader
	Generator traffic.GeneratorState
	Network   *noc.Snapshot
}

// writeCheckpoint captures the network and generator at the current
// cycle boundary and writes the checkpoint file to path.
func writeCheckpoint(path, patternName string, gcfg traffic.GeneratorConfig, nw *noc.Network, gen *traffic.Generator) error {
	snap, err := nw.Snapshot()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	gcfg.Pattern = nil
	hdr, err := json.Marshal(checkpointHeader{Pattern: patternName, Traffic: gcfg})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	e := snapcodec.NewEncoder([]byte(checkpointMagic))
	e.String(string(hdr))
	gstate := gen.CaptureState()
	if err := e.Encode(&gstate); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data, err := noc.EncodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.WriteFile(path, append(e.Bytes(), data...), 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint parses a checkpoint file written by writeCheckpoint. A
// JSON checkpoint of an earlier version is rejected with its snapshot
// version named.
func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	body, ok := bytes.CutPrefix(data, []byte(checkpointMagic))
	if !ok {
		var legacy struct{ Network struct{ Version string } }
		if json.Unmarshal(data, &legacy) == nil && legacy.Network.Version != "" {
			return nil, fmt.Errorf("resume %s: checkpoint snapshot version %q, want %q",
				path, legacy.Network.Version, noc.SnapshotVersion)
		}
		return nil, fmt.Errorf("resume %s: not a nocsim checkpoint", path)
	}
	var ck checkpointFile
	d := snapcodec.NewDecoder(body)
	hdr := d.String()
	if err := d.Decode(&ck.Generator); err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	if err := json.Unmarshal([]byte(hdr), &ck.checkpointHeader); err != nil {
		return nil, fmt.Errorf("resume %s: header: %w", path, err)
	}
	if ck.Network, err = noc.DecodeSnapshot(d.Rest()); err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return &ck, nil
}
