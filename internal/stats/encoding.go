package stats

import (
	"encoding/json"
	"math"

	"gathernoc/internal/snapcodec"
)

// The encoded forms below exist for two consumers with the same need: the
// content-addressed result cache (JSON: experiments must round-trip a
// report byte-for-byte) and engine snapshots (snapcodec: a restored
// component must replay the exact statistics of the run it left). Both
// require that decoding reproduces the encoder's state bit-for-bit, so
// Sample serializes its raw observations in insertion order —
// re-observing them rebuilds the identical chunk layout, sum (same float
// addition order) and order statistics — rather than any lossy summary.

// Clone returns an independent deep copy of the sample, rebuilt by
// replaying the observations in insertion order so the copy's chunk
// layout, running sum and order statistics match the original exactly.
// In-memory snapshot forks use it: assigning a Sample by value would
// share chunk backing arrays with the live original.
func (s *Sample) Clone() Sample {
	var c Sample
	for _, chunk := range s.chunks {
		for _, v := range chunk {
			c.Observe(v)
		}
	}
	return c
}

// MarshalJSON encodes the sample as its observations in insertion order.
func (s Sample) MarshalJSON() ([]byte, error) {
	obs := make([]float64, 0, s.n)
	for _, chunk := range s.chunks {
		obs = append(obs, chunk...)
	}
	return json.Marshal(obs)
}

// UnmarshalJSON resets the sample and replays the encoded observations,
// reproducing the encoder's state exactly.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var obs []float64
	if err := json.Unmarshal(data, &obs); err != nil {
		return err
	}
	*s = Sample{}
	for _, v := range obs {
		s.Observe(v)
	}
	return nil
}

// rawObservation is the snapshot tag of an observation stored as its
// eight raw bits. Integral observations are stored as twice their zigzag
// value, so the tag's low bit tells the two forms apart.
const rawObservation = 1

// maxIntegral bounds the observations stored as integers: every integer
// of smaller magnitude is an exact float64.
const maxIntegral = 1 << 53

// integral returns v as an integer when it is one of magnitude below
// maxIntegral and not −0, the observations the snapshot stores as
// varints.
func integral(v float64) (int64, bool) {
	i := int64(v)
	return i, float64(i) == v && i > -maxIntegral && i < maxIntegral && (i != 0 || !math.Signbit(v))
}

// EncodeSnap writes the observation count and the observations in
// insertion order: an integral value as a varint of twice its zigzag
// form, any other (fractions, −0, NaN payloads, ±Inf, magnitudes from
// 2^53) as the raw tag followed by its eight bits. Latency and hop
// samples are integral, so most observations take one or two bytes.
func (s *Sample) EncodeSnap(e *snapcodec.Encoder) {
	e.Uint(uint64(s.n))
	for _, chunk := range s.chunks {
		for _, v := range chunk {
			if i, ok := integral(v); ok {
				e.Uint((uint64(i<<1) ^ uint64(i>>63)) << 1)
			} else {
				e.Uint(rawObservation)
				e.Float64(v)
			}
		}
	}
}

// DecodeSnap resets the sample and replays the encoded observations. An
// unknown tag, an integer out of range or a raw value that should have
// been stored as an integer is an error, so each sample has exactly one
// encoding.
func (s *Sample) DecodeSnap(d *snapcodec.Decoder) {
	n := d.Len(1)
	*s = Sample{}
	for k := 0; k < n && d.Err() == nil; k++ {
		x := d.Uint()
		var v float64
		switch {
		case x&1 == 0:
			zz := x >> 1
			i := int64(zz>>1) ^ -int64(zz&1)
			if i <= -maxIntegral || i >= maxIntegral {
				d.Fail("sample observation %d out of the integral range", i)
			}
			v = float64(i)
		case x == rawObservation:
			v = d.Float64()
			if _, ok := integral(v); ok && d.Err() == nil {
				d.Fail("integral sample observation %v stored raw", v)
			}
		default:
			d.Fail("sample observation tag %d", x)
		}
		s.Observe(v)
	}
}
