package noc

import (
	"bytes"
	"strings"
	"testing"

	"gathernoc/internal/snapcodec"
)

// TestDecodeSnapshotRejectsOtherVersions: a JSON snapshot of the v1
// format and a binary snapshot of another version are refused with an
// error naming the version found; a snapshot with a byte appended is
// refused as trailing input.
func TestDecodeSnapshotRejectsOtherVersions(t *testing.T) {
	fx := newRejectFixture(t)
	v1 := []byte(`{"Version":"gathernoc/noc.Snapshot/v1","ConfigHash":"ab","Cycle":6}`)
	if _, err := DecodeSnapshot(v1); err == nil || !strings.Contains(err.Error(), `"gathernoc/noc.Snapshot/v1"`) {
		t.Errorf("v1 JSON: %v, want an error naming gathernoc/noc.Snapshot/v1", err)
	}
	e := snapcodec.NewEncoder([]byte(snapshotMagic))
	e.String("gathernoc/noc.Snapshot/v3")
	other := append(e.Bytes(), fx.data[len(snapshotMagic)+1+len(SnapshotVersion):]...)
	if _, err := DecodeSnapshot(other); err == nil || !strings.Contains(err.Error(), `"gathernoc/noc.Snapshot/v3"`) {
		t.Errorf("v3 binary: %v, want an error naming gathernoc/noc.Snapshot/v3", err)
	}
	if _, err := DecodeSnapshot(append(bytes.Clone(fx.data), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v, want a trailing-bytes error", err)
	}
	if _, err := DecodeSnapshot([]byte("not a snapshot")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("garbage: %v, want a missing-magic error", err)
	}
}

// FuzzDecodeSnapshot treats a snapshot as the outside input it is: any
// byte string goes through DecodeSnapshot and then Restore onto a fresh
// 4x4 network. Either step may refuse it with an error; what either
// accepts must be a network that runs 50 cycles. Nothing may panic.
func FuzzDecodeSnapshot(f *testing.F) {
	fx := newRejectFixture(f)
	f.Add(fx.data)
	for _, n := range []int{0, 1, len(snapshotMagic), len(snapshotMagic) + 1, 40, len(fx.data) / 2, len(fx.data) - 1} {
		f.Add(fx.data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		nw, err := New(fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		if err := nw.Restore(s); err != nil {
			return
		}
		nw.Engine().Run(50)
	})
}
