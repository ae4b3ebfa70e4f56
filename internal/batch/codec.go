package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/diorama/continual/internal/relation"
)

// ErrMalformed reports bytes that do not decode: a count or length
// beyond the bytes present, a tag out of range, or a frame whose parts
// disagree. Dec reports every defect through it.
var ErrMalformed = errors.New("batch: malformed encoding")

// Enc appends the module's byte primitives — uvarints, length-prefixed
// strings, schemas and frames (Frame) — to a byte slice. The WAL's
// records, the checkpoint's frames and the remote protocol's messages
// are all written with it.
type Enc struct{ B []byte }

func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Byte(v byte)      { e.B = append(e.B, v) }
func (e *Enc) Bytes(p []byte)   { e.Uvarint(uint64(len(p))); e.B = append(e.B, p...) }
func (e *Enc) Str(s string)     { e.Uvarint(uint64(len(s))); e.B = append(e.B, s...) }

func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.Byte(b)
}

// Schema writes the column count, then each column's name and type.
func (e *Enc) Schema(s relation.Schema) {
	e.Uvarint(uint64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i)
		e.Str(c.Name)
		e.Uvarint(uint64(c.Type))
	}
}

// Dec reads what Enc writes with strict bounds checking: every length
// and count is checked against the bytes left before anything is sliced
// or allocated, so corrupt or hostile bytes produce an error, never a
// panic or an allocation out of proportion to the input. The first
// failure sticks in Err; every read after it returns a zero value.
type Dec struct {
	B   []byte
	Err error
}

// Fail records err as the decoder's error unless one is already set.
func (d *Dec) Fail(err error) {
	if d.Err == nil {
		d.Err = err
	}
}

func (d *Dec) failf(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.failf("bad uvarint")
		return 0
	}
	d.B = d.B[n:]
	return v
}

// take consumes the next n bytes; nil (and a failure) when fewer are
// left.
func (d *Dec) take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > len(d.B) {
		d.failf("%d bytes wanted, %d left", n, len(d.B))
		return nil
	}
	p := d.B[:n:n]
	d.B = d.B[n:]
	return p
}

func (d *Dec) Byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	switch b := d.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		d.failf("bool byte %d", b)
		return false
	}
}

// Bytes reads a length-prefixed byte string. The result aliases the
// decoder's input.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.B)) {
		d.failf("length %d, %d bytes left", n, len(d.B))
		return nil
	}
	return d.take(int(n))
}

func (d *Dec) Str() string { return string(d.Bytes()) }

// Count reads the length of a collection each of whose elements takes
// at least one byte of what follows, so a count beyond the bytes left
// is refused before the caller allocates for it.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.B)) {
		d.failf("count %d, %d bytes left", n, len(d.B))
		return 0
	}
	return int(n)
}

func (d *Dec) Schema() relation.Schema {
	n := d.Count()
	cols := make([]relation.Column, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		name := d.Str()
		typ := d.Uvarint()
		if typ > math.MaxUint8 {
			d.failf("column type %d", typ) // relation.Type is one byte
		}
		cols = append(cols, relation.Column{Name: name, Type: relation.Type(typ)})
	}
	if d.Err != nil {
		return relation.Schema{}
	}
	s, err := relation.NewSchema(cols...)
	if err != nil {
		d.failf("%v", err)
	}
	return s
}

// ReadN reads the next n bytes of r into buf's storage, growing it as
// the bytes arrive, doubling from 64 KiB: a length prefix claiming more
// than the stream holds costs at most twice what is there, plus 64 KiB.
// A stream that ends first is io.ErrUnexpectedEOF. The returned slice
// keeps buf's storage for the next call.
func ReadN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}
