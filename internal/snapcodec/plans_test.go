package snapcodec_test

import (
	"testing"

	"gathernoc/internal/noc"
	"gathernoc/internal/snapcodec"
	"gathernoc/internal/traffic"
)

func marshal(v any) ([]byte, error) {
	e := snapcodec.NewEncoder(nil)
	err := e.Encode(v)
	return e.Bytes(), err
}

// TestPlansBuildForSnapshotTypes builds the plans of the two roots the
// simulator encodes — the network snapshot and the synthetic-traffic
// generator state riding beside it in a nocsim checkpoint. A plan is
// built per type, not per value, so encoding the zero values walks every
// type reachable from them, nil pointers and empty slices included.
func TestPlansBuildForSnapshotTypes(t *testing.T) {
	for name, v := range map[string]any{
		"noc.Snapshot":           &noc.Snapshot{},
		"traffic.GeneratorState": &traffic.GeneratorState{},
	} {
		data, err := marshal(v)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := snapcodec.Unmarshal(data, v); err != nil {
			t.Errorf("%s: decoding its zero value: %v", name, err)
		}
	}
}
