// Package serde is the Go analog of the Boost.Serialization layer that
// HEPnOS uses to turn C++ objects into stored bytes (§II-A of the paper).
//
// Products are arbitrary user types. Any Go value composed of booleans,
// integers, floats, strings, slices, arrays, maps, pointers and structs of
// those can be serialized without any annotation, mirroring how HEPnOS
// handles "any native datatype and C++ standard library container". A type
// can also customize its wire form by implementing Custom, the analog of
// providing a serialize() member function for Boost.
//
// The encoding is deterministic (map keys are sorted), compact (unsigned
// varints for lengths, zig-zag varints for signed integers) and
// self-delimiting per value, so multiple products can be concatenated.
package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// Custom is implemented by types that want full control over their wire
// format. Serialize is called for both saving and loading; inspect
// Archive.Saving to know the direction, exactly like a Boost serialize()
// template function.
type Custom interface {
	Serialize(ar *Archive) error
}

// ErrCorrupt reports truncated or malformed input to Unmarshal.
var ErrCorrupt = errors.New("serde: corrupt input")

// ErrUnsupported reports a Go type the archive cannot represent.
var ErrUnsupported = errors.New("serde: unsupported type")

// archives pools the Archive structs themselves so Marshal/Unmarshal calls
// don't heap-allocate one per operation.
var archives = sync.Pool{New: func() any { return new(Archive) }}

func getArchive() *Archive { return archives.Get().(*Archive) }

func putArchive(ar *Archive) {
	*ar = Archive{}
	archives.Put(ar)
}

// Marshal encodes v into a fresh, exactly-sized byte slice. v may be the
// value or a (chain of) pointer(s) to it; both encode identically, so
// Marshal(&v) round-trips through Unmarshal(data, &v). Internally it
// encodes into a pooled scratch buffer and copies out only the final bytes;
// the result is GC-owned and safe to retain. Hot paths that can manage
// buffer lifetime should prefer MarshalAppend into a wire.Buf instead.
//
// Only the scratch's own array goes back to the pool. Growth past it is
// left to the GC: Marshal always draws from the smallest class, so grown
// arrays re-classed into larger pools were put far more often than drawn,
// and the pools' victim cache kept them live across GC cycles.
func Marshal(v any) ([]byte, error) {
	scratch := wire.Acquire(256)
	defer scratch.Release()
	out, err := MarshalAppend(scratch.B, v)
	if err != nil {
		return nil, err
	}
	exact := make([]byte, len(out))
	copy(exact, out)
	return exact, nil
}

// MarshalAppend encodes v, appending to dst, and returns the extended
// slice (like append, dst may be reallocated). This is the zero-extra-copy
// encode path: callers owning a pooled wire.Buf pass buf.B and store the
// result back, so repeated encodes reuse one buffer.
func MarshalAppend(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	// A top-level pointer is the caller's way of handing over the value,
	// not part of the encoded type: Marshal(&v) and Marshal(v) produce
	// identical bytes, matching what Unmarshal(data, &v) expects on the
	// way back. Pointers *inside* the value keep their nil-marker byte.
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("serde: Marshal of nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	ar := getArchive()
	ar.Saving = true
	ar.buf = dst
	err := ar.value(rv)
	out := ar.buf
	putArchive(ar)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Unmarshal decodes data into the value pointed to by ptr. ptr must be a
// non-nil pointer. Unmarshal returns ErrCorrupt if data is truncated or has
// trailing garbage. Decoded byte slices are copies: the result does not
// alias data.
func Unmarshal(data []byte, ptr any) error {
	return unmarshal(data, ptr, false)
}

// UnmarshalBorrow decodes like Unmarshal, but every []byte field in the
// result is a borrowed view into data instead of a copy — the zero-copy
// decode mode. The caller must ensure data outlives every such view and is
// not recycled (wire.Buf.Release) or mutated while views are live; see
// DESIGN.md §12 for the ownership rules. Strings and all other field kinds
// are still copies, so only []byte fields pin data.
func UnmarshalBorrow(data []byte, ptr any) error {
	return unmarshal(data, ptr, true)
}

func unmarshal(data []byte, ptr any, borrow bool) error {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serde: Unmarshal target must be a non-nil pointer, got %T", ptr)
	}
	ar := getArchive()
	ar.buf = data
	ar.borrow = borrow
	err := ar.value(rv.Elem())
	off := ar.off
	putArchive(ar)
	if err != nil {
		return err
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-off)
	}
	return nil
}

// Archive carries an encode or decode in progress. User code only touches
// it from a Custom.Serialize implementation, through the typed accessors.
type Archive struct {
	// Saving is true while encoding, false while decoding.
	Saving bool

	buf    []byte // output when saving, input when loading
	off    int    // read offset when loading
	borrow bool   // loading only: []byte fields alias buf instead of copying
}

// Bytes serializes a byte slice (fast path, no per-element reflection).
// When decoding under UnmarshalBorrow, *p is set to a view into the input
// rather than a copy — this applies inside Custom.Serialize too.
func (ar *Archive) Bytes(p *[]byte) error {
	if ar.Saving {
		ar.putUvarint(uint64(len(*p)))
		ar.buf = append(ar.buf, *p...)
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if uint64(len(ar.buf)-ar.off) < n {
		return fmt.Errorf("%w: byte slice of %d exceeds input", ErrCorrupt, n)
	}
	if ar.borrow {
		*p = ar.buf[ar.off : ar.off+int(n) : ar.off+int(n)]
	} else {
		*p = append((*p)[:0], ar.buf[ar.off:ar.off+int(n)]...)
	}
	ar.off += int(n)
	return nil
}

// String serializes a string.
func (ar *Archive) String(s *string) error {
	if ar.Saving {
		ar.putUvarint(uint64(len(*s)))
		ar.buf = append(ar.buf, *s...)
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if uint64(len(ar.buf)-ar.off) < n {
		return fmt.Errorf("%w: string of %d exceeds input", ErrCorrupt, n)
	}
	*s = string(ar.buf[ar.off : ar.off+int(n)])
	ar.off += int(n)
	return nil
}

// Bool serializes a bool.
func (ar *Archive) Bool(b *bool) error {
	if ar.Saving {
		if *b {
			ar.buf = append(ar.buf, 1)
		} else {
			ar.buf = append(ar.buf, 0)
		}
		return nil
	}
	if ar.off >= len(ar.buf) {
		return fmt.Errorf("%w: truncated bool", ErrCorrupt)
	}
	c := ar.buf[ar.off]
	ar.off++
	if c > 1 {
		return fmt.Errorf("%w: bool byte %#x", ErrCorrupt, c)
	}
	*b = c == 1
	return nil
}

// Uint64 serializes an unsigned integer as a varint.
func (ar *Archive) Uint64(v *uint64) error {
	if ar.Saving {
		ar.putUvarint(*v)
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	*v = n
	return nil
}

// Int64 serializes a signed integer as a zig-zag varint.
func (ar *Archive) Int64(v *int64) error {
	if ar.Saving {
		ar.putUvarint(zigzag(*v))
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	*v = unzigzag(n)
	return nil
}

// Float64 serializes a float64 as 8 fixed bytes.
func (ar *Archive) Float64(v *float64) error {
	if ar.Saving {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(*v))
		ar.buf = append(ar.buf, b[:]...)
		return nil
	}
	if len(ar.buf)-ar.off < 8 {
		return fmt.Errorf("%w: truncated float64", ErrCorrupt)
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(ar.buf[ar.off:]))
	ar.off += 8
	return nil
}

// Float32 serializes a float32 as 4 fixed bytes.
func (ar *Archive) Float32(v *float32) error {
	if ar.Saving {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(*v))
		ar.buf = append(ar.buf, b[:]...)
		return nil
	}
	if len(ar.buf)-ar.off < 4 {
		return fmt.Errorf("%w: truncated float32", ErrCorrupt)
	}
	*v = math.Float32frombits(binary.LittleEndian.Uint32(ar.buf[ar.off:]))
	ar.off += 4
	return nil
}

// Value serializes any supported Go value through reflection; v must be a
// pointer to the value. This is the "ar & x" of the Boost idiom.
func (ar *Archive) Value(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serde: Archive.Value needs a non-nil pointer, got %T", v)
	}
	return ar.value(rv.Elem())
}

var customType = reflect.TypeOf((*Custom)(nil)).Elem()

func (ar *Archive) value(v reflect.Value) error {
	// Custom serializers take priority, matching Boost's dispatch on the
	// presence of a serialize() member.
	if reflect.PointerTo(v.Type()).Implements(customType) {
		if !v.CanAddr() {
			// Top-level Marshal of a non-pointer value: work on an
			// addressable copy (saving only reads it anyway).
			tmp := reflect.New(v.Type())
			tmp.Elem().Set(v)
			v = tmp.Elem()
		}
		return v.Addr().Interface().(Custom).Serialize(ar)
	}

	switch v.Kind() {
	case reflect.Bool:
		if ar.Saving {
			b := v.Bool()
			return ar.Bool(&b)
		}
		var b bool
		if err := ar.Bool(&b); err != nil {
			return err
		}
		v.SetBool(b)
		return nil

	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if ar.Saving {
			i := v.Int()
			return ar.Int64(&i)
		}
		var i int64
		if err := ar.Int64(&i); err != nil {
			return err
		}
		if v.OverflowInt(i) {
			return fmt.Errorf("%w: value %d overflows %s", ErrCorrupt, i, v.Type())
		}
		v.SetInt(i)
		return nil

	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if ar.Saving {
			u := v.Uint()
			return ar.Uint64(&u)
		}
		var u uint64
		if err := ar.Uint64(&u); err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("%w: value %d overflows %s", ErrCorrupt, u, v.Type())
		}
		v.SetUint(u)
		return nil

	case reflect.Float32:
		if ar.Saving {
			f := float32(v.Float())
			return ar.Float32(&f)
		}
		var f float32
		if err := ar.Float32(&f); err != nil {
			return err
		}
		v.SetFloat(float64(f))
		return nil

	case reflect.Float64:
		if ar.Saving {
			f := v.Float()
			return ar.Float64(&f)
		}
		var f float64
		if err := ar.Float64(&f); err != nil {
			return err
		}
		v.SetFloat(f)
		return nil

	case reflect.String:
		if ar.Saving {
			s := v.String()
			return ar.String(&s)
		}
		var s string
		if err := ar.String(&s); err != nil {
			return err
		}
		v.SetString(s)
		return nil

	case reflect.Slice:
		return ar.sliceValue(v)

	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := ar.value(v.Index(i)); err != nil {
				return fmt.Errorf("array index %d: %w", i, err)
			}
		}
		return nil

	case reflect.Map:
		return ar.mapValue(v)

	case reflect.Pointer:
		return ar.pointerValue(v)

	case reflect.Struct:
		return ar.structValue(v)

	default:
		return fmt.Errorf("%w: %s", ErrUnsupported, v.Kind())
	}
}

func (ar *Archive) sliceValue(v reflect.Value) error {
	// []byte fast path.
	if v.Type().Elem().Kind() == reflect.Uint8 {
		if ar.Saving {
			b := v.Bytes()
			return ar.Bytes(&b)
		}
		var b []byte
		if err := ar.Bytes(&b); err != nil {
			return err
		}
		v.SetBytes(b)
		return nil
	}
	if ar.Saving {
		ar.putUvarint(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := ar.value(v.Index(i)); err != nil {
				return fmt.Errorf("slice index %d: %w", i, err)
			}
		}
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(ar.buf)-ar.off) {
		// Every element takes at least one byte; a length beyond the
		// remaining input is certainly corrupt and must not trigger a
		// huge allocation.
		return fmt.Errorf("%w: slice length %d exceeds input", ErrCorrupt, n)
	}
	out := reflect.MakeSlice(v.Type(), int(n), int(n))
	for i := 0; i < int(n); i++ {
		if err := ar.value(out.Index(i)); err != nil {
			return fmt.Errorf("slice index %d: %w", i, err)
		}
	}
	v.Set(out)
	return nil
}

func (ar *Archive) mapValue(v reflect.Value) error {
	if ar.Saving {
		keys := v.MapKeys()
		// Sort keys for a deterministic encoding; unordered map bytes
		// would break value-equality checks on stored products.
		sort.Slice(keys, func(i, j int) bool { return lessValue(keys[i], keys[j]) })
		ar.putUvarint(uint64(len(keys)))
		for _, k := range keys {
			kc := reflect.New(v.Type().Key()).Elem()
			kc.Set(k)
			if err := ar.value(kc); err != nil {
				return fmt.Errorf("map key: %w", err)
			}
			ec := reflect.New(v.Type().Elem()).Elem()
			ec.Set(v.MapIndex(k))
			if err := ar.value(ec); err != nil {
				return fmt.Errorf("map value: %w", err)
			}
		}
		return nil
	}
	n, err := ar.getUvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(ar.buf)-ar.off) {
		return fmt.Errorf("%w: map length %d exceeds input", ErrCorrupt, n)
	}
	out := reflect.MakeMapWithSize(v.Type(), int(n))
	for i := 0; i < int(n); i++ {
		k := reflect.New(v.Type().Key()).Elem()
		if err := ar.value(k); err != nil {
			return fmt.Errorf("map key: %w", err)
		}
		e := reflect.New(v.Type().Elem()).Elem()
		if err := ar.value(e); err != nil {
			return fmt.Errorf("map value: %w", err)
		}
		out.SetMapIndex(k, e)
	}
	v.Set(out)
	return nil
}

func (ar *Archive) pointerValue(v reflect.Value) error {
	if ar.Saving {
		if v.IsNil() {
			ar.buf = append(ar.buf, 0)
			return nil
		}
		ar.buf = append(ar.buf, 1)
		return ar.value(v.Elem())
	}
	if ar.off >= len(ar.buf) {
		return fmt.Errorf("%w: truncated pointer flag", ErrCorrupt)
	}
	flag := ar.buf[ar.off]
	ar.off++
	switch flag {
	case 0:
		v.SetZero()
		return nil
	case 1:
		v.Set(reflect.New(v.Type().Elem()))
		return ar.value(v.Elem())
	default:
		return fmt.Errorf("%w: pointer flag %#x", ErrCorrupt, flag)
	}
}

// structPlan caches, per struct type, the indexes of the fields the archive
// walks (exported, not tagged `serde:"-"`). Reflection inspects each type
// once; every later encode/decode of that type skips the NumField walk, the
// exported check and the tag lookup.
type structPlan struct {
	fields []int
	names  []string // for error messages, parallel to fields
}

var structPlans sync.Map // reflect.Type -> *structPlan

func planFor(t reflect.Type) *structPlan {
	if p, ok := structPlans.Load(t); ok {
		return p.(*structPlan)
	}
	p := &structPlan{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue // unexported fields are transient, like Boost's untracked members
		}
		if f.Tag.Get("serde") == "-" {
			continue
		}
		p.fields = append(p.fields, i)
		p.names = append(p.names, f.Name)
	}
	actual, _ := structPlans.LoadOrStore(t, p)
	return actual.(*structPlan)
}

func (ar *Archive) structValue(v reflect.Value) error {
	t := v.Type()
	plan := planFor(t)
	for i, fi := range plan.fields {
		if err := ar.value(v.Field(fi)); err != nil {
			return fmt.Errorf("field %s.%s: %w", t.Name(), plan.names[i], err)
		}
	}
	return nil
}

// lessValue orders comparable reflect values for deterministic map output.
func lessValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() < b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() < b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() < b.Float()
	case reflect.String:
		return a.String() < b.String()
	case reflect.Bool:
		return !a.Bool() && b.Bool()
	default:
		// Fall back to the formatted value; slower but still deterministic.
		return fmt.Sprint(a.Interface()) < fmt.Sprint(b.Interface())
	}
}

func (ar *Archive) putUvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	ar.buf = append(ar.buf, b[:n]...)
}

func (ar *Archive) getUvarint() (uint64, error) {
	v, n := binary.Uvarint(ar.buf[ar.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	ar.off += n
	return v, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
