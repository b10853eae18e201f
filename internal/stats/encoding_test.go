package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"gathernoc/internal/snapcodec"
)

func marshal(v any) ([]byte, error) {
	e := snapcodec.NewEncoder(nil)
	err := e.Encode(v)
	return e.Bytes(), err
}

func observations(s *Sample) []float64 {
	var obs []float64
	for _, chunk := range s.chunks {
		obs = append(obs, chunk...)
	}
	return obs
}

// TestSampleSnapRoundTripBitExact: every observation — the integral ones
// stored as varints and the rest stored raw — comes back with its exact
// bits, in insertion order.
func TestSampleSnapRoundTripBitExact(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	vs := []float64{
		0, math.Copysign(0, -1), 1, -1, -12345, 42.5, -0.125, 1.0 / 3,
		math.NaN(), nanPayload, math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, -(1 << 53), 1<<53 - 1, -(1<<53 - 1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300,
	}
	var s Sample
	for _, v := range vs {
		s.Observe(v)
	}
	data, err := marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var got Sample
	if err := snapcodec.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	obs := observations(&got)
	if len(obs) != len(vs) || got.N() != len(vs) {
		t.Fatalf("decoded %d observations, want %d", len(obs), len(vs))
	}
	for i, v := range vs {
		if math.Float64bits(obs[i]) != math.Float64bits(v) {
			t.Errorf("observation %d: %x, want %x", i, math.Float64bits(obs[i]), math.Float64bits(v))
		}
	}
	again, err := marshal(&got)
	if err != nil || string(again) != string(data) {
		t.Errorf("re-encoding differs (%v)", err)
	}
}

// TestSampleSnapIntegralIsCompact guards the snapshot size of the
// sample-heavy ejector statistics: integral latencies take a byte or two
// each, not eight.
func TestSampleSnapIntegralIsCompact(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Observe(float64(i % 200))
	}
	data, err := marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 2*1000+4 {
		t.Errorf("1000 integral observations encoded to %d bytes", len(data))
	}
}

func TestSampleSnapRejectsMalformed(t *testing.T) {
	raw := func(v float64) []byte {
		e := snapcodec.NewEncoder([]byte{1, rawObservation})
		e.Float64(v)
		return e.Bytes()
	}
	big := snapcodec.NewEncoder([]byte{1})
	big.Uint(uint64(1<<53) << 2) // 2^53 in the integral form: zigzag, then the tag bit
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"count beyond input", []byte{9, 0}, "exceeds"},
		{"unknown tag", []byte{1, 3}, "tag 3"},
		{"integral stored raw", raw(7), "stored raw"},
		{"integral magnitude 2^53", big.Bytes(), "integral range"},
		{"truncated raw value", []byte{1, rawObservation, 0}, "truncated float64"},
	}
	for _, tc := range cases {
		var s Sample
		err := snapcodec.Unmarshal(tc.data, &s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCounterJSONIsPlainCount pins the result cache's encoding of a
// counter: the bare count, as before Counter became a named integer.
func TestCounterJSONIsPlainCount(t *testing.T) {
	c := struct{ C Counter }{C: 41}
	c.C.Inc()
	b, err := json.Marshal(c)
	if err != nil || string(b) != `{"C":42}` {
		t.Fatalf("json = %s, %v", b, err)
	}
	var back struct{ C Counter }
	if err := json.Unmarshal(b, &back); err != nil || back.C.Value() != 42 {
		t.Fatalf("decoded %d, %v", back.C.Value(), err)
	}
}
