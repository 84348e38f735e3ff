// Package wire implements the compact binary serialization used by
// Dynamo's RPC layer (the stand-in for Thrift's binary protocol, paper
// §III-A). Messages marshal themselves through an Encoder and unmarshal
// through a Decoder; integers use unsigned varints, floats are IEEE-754
// bits, and strings/byte slices are length-prefixed.
//
// The codec is deliberately free of reflection: encoding cost shows up in
// the controller's 3-second broadcast path, and the benchmark suite
// measures it directly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when a decode runs past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// MaxStringLen bounds decoded string/bytes lengths to keep a corrupt or
// hostile frame from causing huge allocations.
const MaxStringLen = 1 << 20

// Message is implemented by every RPC body type.
type Message interface {
	MarshalWire(e *Encoder)
	UnmarshalWire(d *Decoder) error
}

// Encoder appends primitive values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder, optionally reusing buf's storage.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// AppendMarshal appends m's encoding to dst and returns the extended slice,
// the way strconv.AppendInt does; e is only the scratch it encodes through
// and keeps no reference to dst afterwards. With e held in a long-lived
// struct and dst large enough the call allocates nothing — an Encoder made
// per call would escape to the heap through the MarshalWire interface call.
func (e *Encoder) AppendMarshal(dst []byte, m Message) []byte {
	e.buf = dst
	m.MarshalWire(e)
	dst, e.buf = e.buf, nil
	return dst
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Uint32 appends a fixed 32-bit value.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a boolean byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b as it is: bytes another Encoder already produced.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder reads primitive values from a buffer. The first error sticks;
// check Err (or the error from Unmarshal helpers) after decoding.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at buf and clears the sticky error, so one
// Decoder held in a long-lived struct can decode message after message.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Uint32 reads a fixed 32-bit value.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail(ErrTruncated)
		return false
	}
	v := d.buf[d.off] != 0
	d.off++
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return d.StringKeep("") }

// StringKeep reads a length-prefixed string and returns prev itself when
// the bytes on the wire equal it, so decoding into a message that already
// holds last time's value allocates no new string for a field that rarely
// changes (a server's service, its hardware generation).
func (d *Decoder) StringKeep(prev string) string {
	b := d.lenPrefixed("string")
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// Bytes2 reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes2() []byte {
	b := d.lenPrefixed("bytes")
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// BytesRef reads a length-prefixed byte slice without copying it: the
// result aliases the decoder's buffer, so it is valid only as long as that
// buffer is.
func (d *Decoder) BytesRef() []byte { return d.lenPrefixed("bytes") }

// lenPrefixed reads a length and returns that many bytes of the buffer,
// uncopied; nil after an error.
func (d *Decoder) lenPrefixed(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.fail(fmt.Errorf("wire: %s length %d exceeds limit", what, n))
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Marshal encodes a message to a fresh buffer.
func Marshal(m Message) []byte {
	e := NewEncoder(nil)
	m.MarshalWire(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// Unmarshal decodes a message from buf, failing on trailing garbage-free
// decode errors (extra bytes are permitted for forward compatibility).
func Unmarshal(buf []byte, m Message) error {
	d := NewDecoder(buf)
	if err := m.UnmarshalWire(d); err != nil {
		return err
	}
	return d.Err()
}
