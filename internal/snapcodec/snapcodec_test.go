package snapcodec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func marshal(v any) ([]byte, error) {
	var e Encoder
	err := e.Encode(v)
	return e.Bytes(), err
}

type inner struct {
	Stage uint8
	Wait  int
	Name  string
}

type outer struct {
	Flag   bool
	Delta  int64
	Count  uint64
	Rate   float64
	Items  []inner
	Nodes  []int
	Maybe  *inner
	Nested [][]int16
}

func TestRoundTrip(t *testing.T) {
	in := outer{
		Flag: true, Delta: -1 << 40, Count: math.MaxUint64, Rate: math.Copysign(0, -1),
		Items:  []inner{{Stage: 3, Wait: -2, Name: "vc"}, {}},
		Nodes:  []int{0, 1, -1, math.MaxInt, math.MinInt},
		Maybe:  &inner{Stage: 255},
		Nested: [][]int16{nil, {math.MinInt16, math.MaxInt16}},
	}
	data, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	again, err := marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding differs:\n%x\n%x", data, again)
	}
	if out.Delta != in.Delta || out.Count != in.Count || !math.Signbit(out.Rate) ||
		out.Maybe == nil || out.Maybe.Stage != 255 || out.Items[0] != in.Items[0] ||
		out.Nodes[4] != math.MinInt || out.Nested[0] != nil || out.Nested[1][0] != math.MinInt16 {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

// TestNilAndEmptySlicesEncodeAlike pins the canonical-bytes rule: nil
// and empty slices share one encoding and both decode to nil.
func TestNilAndEmptySlicesEncodeAlike(t *testing.T) {
	type s struct {
		A []int
		B []inner
	}
	a, err := marshal(&s{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(&s{A: []int{}, B: []inner{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("nil %x vs empty %x", a, b)
	}
	out := s{A: []int{7}, B: []inner{{}}}
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != nil || out.B != nil {
		t.Fatalf("empty slices decoded to %#v, want nil", out)
	}
}

type withHook struct{ n int }

func (h *withHook) EncodeSnap(e *Encoder) { e.Int(int64(h.n)) }
func (h *withHook) DecodeSnap(d *Decoder) { h.n = int(d.Int()) }

// TestPlanBuildRejectsUnencodable: a type that would lose data fails
// its plan build instead of encoding as less than it holds.
func TestPlanBuildRejectsUnencodable(t *testing.T) {
	type unexported struct {
		A int
		b uint64
	}
	type nested struct{ In []unexported }
	cases := map[string]any{
		"unexported field":  &unexported{},
		"nested unexported": &nested{},
		"map":               &struct{ M map[int]int }{},
		"interface":         &struct{ I any }{},
		"chan":              &struct{ C chan int }{},
		"func":              &struct{ F func() }{},
		"array":             &struct{ A [2]int }{},
		"float32":           &struct{ F float32 }{},
		"empty struct":      &struct{ E struct{} }{},
	}
	for name, v := range cases {
		if _, err := marshal(v); !errors.Is(err, errUnsupported) {
			t.Errorf("%s: Marshal error %v, want errUnsupported", name, err)
		}
		if err := Unmarshal([]byte{0}, v); !errors.Is(err, errUnsupported) {
			t.Errorf("%s: Unmarshal error %v, want errUnsupported", name, err)
		}
	}
	// The hook admits a type whose state is unexported.
	in := struct{ H withHook }{withHook{-5}}
	data, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ H withHook }
	if err := Unmarshal(data, &out); err != nil || out.H.n != -5 {
		t.Fatalf("hook round trip: %v, %d", err, out.H.n)
	}
}

type recursive struct {
	V    int
	Next *recursive
	Kids []recursive
}

func TestRecursiveType(t *testing.T) {
	in := recursive{V: 1, Next: &recursive{V: 2}, Kids: []recursive{{V: 3}}}
	data, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out recursive
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Next == nil || out.Next.V != 2 || len(out.Kids) != 1 || out.Kids[0].V != 3 {
		t.Fatalf("recursive round trip: %+v", out)
	}
}

// TestDecodeRejectsMalformedInput walks every decoder error path: each
// malformed input must be an error naming the problem, never a panic or
// a silently truncated value.
func TestDecodeRejectsMalformedInput(t *testing.T) {
	type narrow struct{ Stage uint8 }
	type small struct{ V int8 }
	type flag struct{ B bool }
	type list struct{ L []uint64 }
	type text struct{ S string }
	type real struct{ F float64 }
	type big struct{ U uint64 }
	cases := []struct {
		name string
		data []byte
		into any
		want string
	}{
		{"length beyond input", []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2}, &list{}, "exceeds"},
		{"string beyond input", []byte{5, 'a', 'b'}, &text{}, "exceeds"},
		{"slice of floats beyond input", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, &struct{ F []float64 }{}, "exceeds"},
		{"varint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, &big{}, "overflows 64 bits"},
		{"non-minimal varint", []byte{0x81, 0x00}, &big{}, "non-minimal"},
		{"truncated varint", []byte{0x80}, &big{}, "truncated"},
		{"uint8 stage of 300", []byte{0xac, 0x02}, &narrow{}, "overflows uint8"},
		{"int8 of -129", []byte{0x81, 0x02}, &small{}, "overflows int8"},
		{"bool byte 2", []byte{2}, &flag{}, "bool byte 2"},
		{"truncated bool", nil, &flag{}, "truncated bool"},
		{"truncated float", []byte{1, 2, 3}, &real{}, "truncated float64"},
		{"pointer presence byte", []byte{7}, &struct{ P *int }{}, "bool byte 7"},
		{"trailing bytes", []byte{1, 0}, &flag{}, "1 trailing bytes"},
		{"empty input", nil, &big{}, "truncated"},
	}
	for _, tc := range cases {
		err := Unmarshal(tc.data, tc.into)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Unmarshal(%x) = %v, want an error containing %q", tc.name, tc.data, err, tc.want)
		}
	}
}

// TestLengthCheckedBeforeAllocation: a hostile length prefix is refused
// from the input size alone, without allocating the claimed slice.
func TestLengthCheckedBeforeAllocation(t *testing.T) {
	data := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	var out struct{ L []inner }
	allocs := testing.AllocsPerRun(10, func() {
		if Unmarshal(data, &out) == nil {
			t.Fatal("hostile length accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("rejecting a hostile length allocated %.0f times", allocs)
	}
}

func TestEncodeDecodeNeedPointers(t *testing.T) {
	if _, err := marshal(inner{}); err == nil {
		t.Error("Marshal of a non-pointer accepted")
	}
	if err := Unmarshal([]byte{0, 0, 0}, inner{}); err == nil {
		t.Error("Unmarshal into a non-pointer accepted")
	}
	if err := Unmarshal([]byte{0, 0, 0}, (*inner)(nil)); err == nil {
		t.Error("Unmarshal into a nil pointer accepted")
	}
}

// TestConcurrentPlanUse builds and uses one type's plan from several
// goroutines at once; run under -race it checks the shared plan cache.
func TestConcurrentPlanUse(t *testing.T) {
	type fresh struct {
		A []inner
		B *outer
	}
	in := fresh{A: []inner{{Stage: 1}}, B: &outer{Count: 3}}
	want, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	type twin struct {
		A []inner
		B *outer
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tw := twin(in)
			got, err := marshal(&tw)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent Marshal = %x, %v", got, err)
			}
			var back twin
			if err := Unmarshal(got, &back); err != nil || back.B.Count != 3 {
				t.Errorf("concurrent Unmarshal: %v", err)
			}
		}()
	}
	wg.Wait()
}
