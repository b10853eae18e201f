package router

import (
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/topology"
)

func TestCheckInvariantsHealthyPipeline(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)
	format := flit.MustFormat(flit.DefaultFlitBits, flit.DefaultPayloadBits, 2)
	flits, err := flit.Packetize(flit.Packet{ID: 1, PT: flit.Unicast, Src: 0, Dst: 1, Flits: 3}, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flits {
		h.inject(f, 0)
	}
	for h.cycle < 30 {
		h.step()
		for _, r := range []*Router{h.a, h.b} {
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", h.cycle, err)
			}
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cfg := DefaultConfig()
	h := newTwoRouterHarness(t, cfg)

	// Corrupt a credit counter directly.
	h.a.outputs[topology.EastPort].credits[0] = -1
	err := h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "credit") {
		t.Errorf("negative credit not detected: %v", err)
	}
	h.a.outputs[topology.EastPort].credits[0] = 0

	// Raise a gather load without a reservation.
	h.a.inputs[topology.LocalPort][0].gatherLoad = true
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "load") {
		t.Errorf("dangling load not detected: %v", err)
	}
	h.a.inputs[topology.LocalPort][0].gatherLoad = false

	// Let the scheduling bitmaps drift from the VC stages they mirror.
	h.a.vaMask[topology.NorthPort] = 1
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "bitmaps") {
		t.Errorf("VC bitmap drift not detected: %v", err)
	}
	h.a.vaMask[topology.NorthPort] = 0
	h.a.outputs[topology.EastPort].free &^= 1 << 2
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "free-VC bitmap") {
		t.Errorf("free-VC bitmap drift not detected: %v", err)
	}
	h.a.outputs[topology.EastPort].free |= 1 << 2

	// Claim ownership pointing at an input VC that holds nothing.
	h.a.outputs[topology.EastPort].ownerPort[1] = 0
	h.a.outputs[topology.EastPort].ownerVC[1] = 0
	err = h.a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("orphan ownership not detected: %v", err)
	}
}
