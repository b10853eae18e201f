// Package snapcodec is the compact binary encoding of simulator
// snapshots (DESIGN.md §14). A value is encoded by a plan built once per
// type by reflection and cached: bools as one byte, signed integers as
// zigzag varints, unsigned integers as varints, float64s as their eight
// raw bits, strings and slices as a length followed by their elements,
// pointers as a presence byte followed by the pointee, and structs as
// their exported fields in declaration order. Nothing is dropped
// silently: building a plan fails on a map, interface, chan, func or any
// other kind outside that list, and on a struct with unexported fields
// unless the type encodes itself through Hook.
//
// The encoding is canonical: a nil and an empty slice encode alike (a
// zero length) and both decode to nil, so re-encoding a decoded value
// reproduces its bytes. Decoding treats its input as hostile and reports
// every malformation as an error, never a panic: a length larger than
// the bytes left (checked before allocating), a varint that overflows or
// is not minimal, a value too large for its field, a bool byte other
// than 0 or 1, and trailing bytes.
package snapcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// Hook is implemented, on the pointer, by a type that encodes itself —
// a type whose state is unexported. EncodeSnap must write at least one
// byte; DecodeSnap reads exactly what EncodeSnap wrote and reports
// malformed input through Decoder.Fail.
type Hook interface {
	EncodeSnap(e *Encoder)
	DecodeSnap(d *Decoder)
}

// Encoder appends encoded values to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder appending to buf.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint writes x as a varint.
func (e *Encoder) Uint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// Int writes x as a zigzag varint.
func (e *Encoder) Int(x int64) { e.buf = binary.AppendVarint(e.buf, x) }

// Bool writes b as one byte, 0 or 1.
func (e *Encoder) Bool(b bool) {
	var x byte
	if b {
		x = 1
	}
	e.buf = append(e.buf, x)
}

// Float64 writes the eight raw bits of f, so every value (−0, NaN
// payloads, infinities) round-trips exactly.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String writes s's length followed by its bytes.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Encode writes the value v points to through its type's plan.
func (e *Encoder) Encode(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("snapcodec: Encode needs a non-nil pointer, got %T", v)
	}
	p, err := planFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	p.enc(e, rv.UnsafePointer())
	return nil
}

// Decoder reads encoded values from a byte slice. Its error is sticky:
// after the first malformation every read returns a zero value and Err
// reports that first error.
type Decoder struct {
	data []byte
	size int
	err  error
}

// NewDecoder returns a decoder reading data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data, size: len(data)} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a decoding error at the current offset; only the first
// error is kept.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapcodec: at byte %d: %s", d.size-len(d.data), fmt.Sprintf(format, args...))
	}
}

// Rest returns the bytes not yet read.
func (d *Decoder) Rest() []byte { return d.data }

// Uint reads a varint. Overflowing and non-minimal encodings (a
// redundant zero final byte) are errors.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data)
	switch {
	case n == 0:
		d.Fail("truncated varint")
		return 0
	case n < 0:
		d.Fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.data[n-1] == 0:
		d.Fail("non-minimal varint")
		return 0
	}
	d.data = d.data[n:]
	return x
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.data) == 0 {
		d.Fail("truncated bool")
		return false
	}
	b := d.data[0]
	if b > 1 {
		d.Fail("bool byte %d", b)
		return false
	}
	d.data = d.data[1:]
	return b == 1
}

// Float64 reads eight raw bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.Fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return f
}

// Len reads a length prefix for elements that each take at least minSize
// (>= 1) bytes, rejecting — before anything is allocated — a length the
// remaining bytes cannot hold.
func (d *Decoder) Len(minSize int) int {
	n := d.Uint()
	if d.err == nil && n > uint64(len(d.data)/minSize) {
		d.Fail("length %d exceeds the %d bytes left", n, len(d.data))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len(1)
	if d.err != nil {
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Decode reads a value into the one v points to, replacing every field.
func (d *Decoder) Decode(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("snapcodec: Decode needs a non-nil pointer, got %T", v)
	}
	p, err := planFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	p.dec(d, rv.UnsafePointer())
	return d.err
}

// Unmarshal decodes data, which must hold exactly one value, into the
// value v points to; bytes left over are an error.
func Unmarshal(data []byte, v any) error {
	d := NewDecoder(data)
	if err := d.Decode(v); err != nil {
		return err
	}
	if len(d.data) > 0 {
		d.Fail("%d trailing bytes", len(d.data))
	}
	return d.err
}

// plan encodes and decodes one type, addressed by an untyped pointer to a
// value of it; min is the fewest bytes one value encodes to, which
// bounds a slice length against the input size. Plans read and write
// memory only at offsets and sizes reflect reports for the type, and
// allocate only through reflect, so hostile input steers values and
// lengths, never addresses.
type plan struct {
	enc func(*Encoder, unsafe.Pointer)
	dec func(*Decoder, unsafe.Pointer)
	min int
}

var (
	plans    sync.Map // reflect.Type -> *plan
	hookType = reflect.TypeOf((*Hook)(nil)).Elem()
)

// planFor returns t's cached plan, building it on first use.
func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p, err := build(t, t.String(), map[reflect.Type]*plan{})
	if err != nil {
		return nil, err
	}
	plans.Store(t, p)
	return p, nil
}

// errUnsupported marks a type the codec refuses to encode.
var errUnsupported = errors.New("snapcodec: unsupported type")

// sliceHeader is the memory layout of every slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// signed and unsigned build the plan functions of an integer kind, T
// being the predeclared type of t's size; decoding rejects a value that
// does not fit.
func signed[T int | int8 | int16 | int32 | int64](p *plan, t reflect.Type) {
	p.enc = func(e *Encoder, v unsafe.Pointer) { e.Int(int64(*(*T)(v))) }
	p.dec = func(d *Decoder, v unsafe.Pointer) {
		if x := d.Int(); int64(T(x)) != x {
			d.Fail("%d overflows %s", x, t)
		} else {
			*(*T)(v) = T(x)
		}
	}
}

func unsigned[T uint | uint8 | uint16 | uint32 | uint64](p *plan, t reflect.Type) {
	p.enc = func(e *Encoder, v unsafe.Pointer) { e.Uint(uint64(*(*T)(v))) }
	p.dec = func(d *Decoder, v unsafe.Pointer) {
		if x := d.Uint(); uint64(T(x)) != x {
			d.Fail("%d overflows %s", x, t)
		} else {
			*(*T)(v) = T(x)
		}
	}
}

// build walks t; path names the position in the root type for errors,
// and building maps the types under construction to their (not yet
// filled) plans so recursive types terminate.
func build(t reflect.Type, path string, building map[reflect.Type]*plan) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	if p := building[t]; p != nil {
		return p, nil
	}
	p := &plan{min: 1}
	building[t] = p
	if reflect.PointerTo(t).Implements(hookType) {
		p.enc = func(e *Encoder, v unsafe.Pointer) { reflect.NewAt(t, v).Interface().(Hook).EncodeSnap(e) }
		p.dec = func(d *Decoder, v unsafe.Pointer) { reflect.NewAt(t, v).Interface().(Hook).DecodeSnap(d) }
		return p, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		p.enc = func(e *Encoder, v unsafe.Pointer) { e.Bool(*(*bool)(v)) }
		p.dec = func(d *Decoder, v unsafe.Pointer) { *(*bool)(v) = d.Bool() }
	case reflect.Int:
		signed[int](p, t)
	case reflect.Int8:
		signed[int8](p, t)
	case reflect.Int16:
		signed[int16](p, t)
	case reflect.Int32:
		signed[int32](p, t)
	case reflect.Int64:
		signed[int64](p, t)
	case reflect.Uint:
		unsigned[uint](p, t)
	case reflect.Uint8:
		unsigned[uint8](p, t)
	case reflect.Uint16:
		unsigned[uint16](p, t)
	case reflect.Uint32:
		unsigned[uint32](p, t)
	case reflect.Uint64:
		unsigned[uint64](p, t)
	case reflect.Float64:
		p.min = 8
		p.enc = func(e *Encoder, v unsafe.Pointer) { e.Float64(*(*float64)(v)) }
		p.dec = func(d *Decoder, v unsafe.Pointer) { *(*float64)(v) = d.Float64() }
	case reflect.String:
		p.enc = func(e *Encoder, v unsafe.Pointer) { e.String(*(*string)(v)) }
		p.dec = func(d *Decoder, v unsafe.Pointer) { *(*string)(v) = d.String() }
	case reflect.Slice:
		ep, err := build(t.Elem(), path+"[]", building)
		if err != nil {
			return nil, err
		}
		size := t.Elem().Size()
		p.enc = func(e *Encoder, v unsafe.Pointer) {
			h := (*sliceHeader)(v)
			e.Uint(uint64(h.len))
			for i := 0; i < h.len; i++ {
				ep.enc(e, unsafe.Add(h.data, uintptr(i)*size))
			}
		}
		p.dec = func(d *Decoder, v unsafe.Pointer) {
			n := d.Len(ep.min)
			if n == 0 {
				*(*sliceHeader)(v) = sliceHeader{}
				return
			}
			s := reflect.MakeSlice(t, n, n)
			reflect.NewAt(t, v).Elem().Set(s)
			data := s.UnsafePointer()
			for i := 0; i < n && d.err == nil; i++ {
				ep.dec(d, unsafe.Add(data, uintptr(i)*size))
			}
		}
	case reflect.Pointer:
		ep, err := build(t.Elem(), "*"+path, building)
		if err != nil {
			return nil, err
		}
		p.enc = func(e *Encoder, v unsafe.Pointer) {
			x := *(*unsafe.Pointer)(v)
			e.Bool(x != nil)
			if x != nil {
				ep.enc(e, x)
			}
		}
		p.dec = func(d *Decoder, v unsafe.Pointer) {
			if !d.Bool() {
				*(*unsafe.Pointer)(v) = nil
				return
			}
			x := reflect.New(t.Elem()).UnsafePointer()
			*(*unsafe.Pointer)(v) = x
			ep.dec(d, x)
		}
	case reflect.Struct:
		if t.NumField() == 0 {
			return nil, fmt.Errorf("%w: %s (%s) has no fields", errUnsupported, path, t)
		}
		type field struct {
			p   *plan
			off uintptr
		}
		fields := make([]field, t.NumField())
		p.min = 0
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, fmt.Errorf("%w: %s (%s) has unexported field %s and no Hook", errUnsupported, path, t, f.Name)
			}
			fp, err := build(f.Type, path+"."+f.Name, building)
			if err != nil {
				return nil, err
			}
			fields[i] = field{fp, f.Offset}
			p.min += fp.min
		}
		p.enc = func(e *Encoder, v unsafe.Pointer) {
			for _, f := range fields {
				f.p.enc(e, unsafe.Add(v, f.off))
			}
		}
		p.dec = func(d *Decoder, v unsafe.Pointer) {
			for _, f := range fields {
				if d.err != nil {
					return
				}
				f.p.dec(d, unsafe.Add(v, f.off))
			}
		}
	default:
		return nil, fmt.Errorf("%w: %s (%s) is a %s", errUnsupported, path, t, t.Kind())
	}
	return p, nil
}
