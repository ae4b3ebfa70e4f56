package batch

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// A frame is the module's one byte form of a row set — a window, a
// snapshot, a query result, a checkpoint chunk — written column by
// column, as the batch holds it:
//
//	frame   = schema rows:uvarint ts:bool tid:uvarint×rows sign:byte×rows
//	          [ts:uvarint×rows] column×(schema width)
//	column  = valid:bool [8-byte little-endian bitmap word×⌈rows/64⌉] payload
//	payload = INT    zigzag varint×rows
//	        | FLOAT  8-byte little-endian IEEE 754 bits×rows
//	        | STRING length:uvarint×rows, then the bytes of every row
//	        | BOOL   byte (0 or 1)×rows
//
// A window pairs positionally, as in the delta log: a -1 row followed
// by a +1 row with the same tid and timestamp is a modification, a lone
// +1 inserts, a lone -1 deletes. An image (a snapshot, a query result,
// a chunk of a checkpoint's tuples) is +1 rows, each tid once, and no
// timestamps. A NULL row's payload slot holds the zero value.

// Frame appends the batch as one frame.
func (e *Enc) Frame(b *Batch) {
	b.check()
	n := b.n
	e.Schema(b.Schema)
	e.Uvarint(uint64(n))
	e.Bool(b.TS != nil)
	buf := e.B
	for _, tid := range b.TIDs[:n] {
		buf = appendUvarint(buf, uint64(tid))
	}
	for _, s := range b.Signs[:n] {
		buf = append(buf, byte(s))
	}
	if b.TS != nil {
		for _, ts := range b.TS[:n] {
			buf = appendUvarint(buf, uint64(ts))
		}
	}
	for c := range b.Cols {
		buf = appendCol(buf, &b.Cols[c], n)
	}
	e.B = buf
}

// appendCol appends a column: its bitmap, only when a row is NULL and
// with the bits past the last row clear, so that the bytes depend on
// the rows alone and not on how the batch holds them; then its payload.
func appendCol(buf []byte, c *Col, n int) []byte {
	if !c.hasNulls(n) {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for i, w := range c.Valid[:(n+63)/64] {
			if i == n>>6 {
				w &= 1<<(n&63) - 1
			}
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	switch c.Type {
	case relation.TInt:
		for _, v := range c.I64[:n] {
			buf = appendUvarint(buf, uint64(v<<1^v>>63)) // zigzag, as binary.AppendVarint
		}
	case relation.TFloat:
		for _, v := range c.F64[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case relation.TString:
		for _, s := range c.Str[:n] {
			buf = appendUvarint(buf, uint64(len(s)))
		}
		for _, s := range c.Str[:n] {
			buf = append(buf, s...)
		}
	case relation.TBool:
		for _, v := range c.B[:n] {
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// hasNulls reports whether any of the first n rows is NULL.
func (c *Col) hasNulls(n int) bool {
	if c.Valid == nil {
		return false
	}
	for _, w := range c.Valid[:n>>6] {
		if w != ^uint64(0) {
			return true
		}
	}
	tail := uint64(1)<<(n&63) - 1
	return n&63 != 0 && c.Valid[n>>6]&tail != tail
}

// appendUvarint is binary.AppendUvarint with the values under 2²¹ —
// most tids, timestamps and small integers — appended in one step, not
// a byte per loop turn: BenchmarkWriteCheckpoint (100k four-INT rows)
// reads 7.7 ms with it and 9.2 ms with binary.AppendUvarint and
// binary.AppendVarint (medians of 5 and 6 runs, 2-core x86-64 host).
func appendUvarint(buf []byte, x uint64) []byte {
	switch {
	case x < 1<<7:
		return append(buf, byte(x))
	case x < 1<<14:
		return append(buf, byte(x)|0x80, byte(x>>7))
	case x < 1<<21:
		return append(buf, byte(x)|0x80, byte(x>>7)|0x80, byte(x>>14))
	default:
		return binary.AppendUvarint(buf, x)
	}
}

// FrameRowBytes bounds the bytes a row of vals adds to a frame: its
// tid, sign and timestamp, and per value a validity bit and a payload —
// a varint, 8 bytes of a float, a bool's byte or a string's length and
// bytes — each counted at its widest.
func FrameRowBytes(vals []relation.Value) int {
	n := 1 + 2*binary.MaxVarintLen64
	for _, v := range vals {
		n += 1 + binary.MaxVarintLen64
		if v.Kind == relation.TString {
			n += len(v.AsString())
		}
	}
	return n
}

// Frame decodes one frame into a batch that owns its memory: nothing
// of it aliases the decoder's input, and no batch is returned for a
// defective frame — a count beyond the bytes left, a sign other than
// ±1, a column of an unknown type, a bool byte other than 0 or 1 — or,
// when image is set, for one that is not an image: a sign other than
// +1, timestamps, or a tid that repeats. An image is what TableOf
// adopts.
func (d *Dec) Frame(image bool) *Batch {
	schema := d.Schema()
	n := d.Count() // a row takes at least its tid's and its sign's byte
	hasTS := d.Bool()
	if image && hasTS {
		d.failf("an image carries timestamps")
	}
	if d.Err != nil {
		return nil
	}
	tids := make([]relation.TID, n)
	for i := range tids {
		tids[i] = relation.TID(d.Uvarint())
	}
	signs := make([]int8, n)
	for i, s := range d.take(n) {
		signs[i] = int8(s)
		if signs[i] != 1 && (image || signs[i] != -1) {
			d.failf("row %d has sign %d", i, signs[i])
		}
	}
	var ts []vclock.Timestamp
	if hasTS && d.Err == nil {
		ts = make([]vclock.Timestamp, n)
		for i := range ts {
			ts[i] = vclock.Timestamp(d.Uvarint())
		}
	}
	var cols []Col
	if d.Err == nil {
		cols = make([]Col, schema.Len())
	}
	for c := range cols {
		cols[c] = d.col(schema.Col(c).Type, n)
	}
	if image && d.Err == nil && repeats(tids) {
		d.failf("a tid repeats in an image")
	}
	if d.Err != nil {
		return nil
	}
	return Adopt(schema, tids, signs, ts, cols)
}

func (d *Dec) col(t relation.Type, n int) Col {
	c := Col{Type: t}
	if d.Bool() {
		words := d.take(8 * ((n + 63) / 64))
		if d.Err == nil {
			c.Valid = make([]uint64, len(words)/8)
			for i := range c.Valid {
				c.Valid[i] = binary.LittleEndian.Uint64(words[8*i:])
			}
		}
	}
	switch t {
	case relation.TInt:
		if d.room(n) {
			c.I64 = make([]int64, n)
			for i := range c.I64 {
				v, k := binary.Varint(d.B)
				if k <= 0 {
					d.failf("bad varint")
					return c
				}
				c.I64[i], d.B = v, d.B[k:]
			}
		}
	case relation.TFloat:
		if p := d.take(8 * n); d.Err == nil {
			c.F64 = make([]float64, n)
			for i := range c.F64 {
				c.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			}
		}
	case relation.TString:
		c.Str = d.strings(n)
	case relation.TBool:
		if p := d.take(n); d.Err == nil {
			c.B = make([]bool, n)
			for i, b := range p {
				if b > 1 {
					d.failf("bool byte %d", b)
				}
				c.B[i] = b == 1
			}
		}
	default:
		d.failf("column type %d", t)
	}
	return c
}

// room reports whether n more bytes are left, failing when not.
func (d *Dec) room(n int) bool {
	if d.Err == nil && n > len(d.B) {
		d.failf("%d rows, %d bytes left", n, len(d.B))
	}
	return d.Err == nil
}

// strings reads a string column: n lengths, then the bytes of every
// row, copied once into one string the rows are cut from.
func (d *Dec) strings(n int) []string {
	if !d.room(n) {
		return nil
	}
	data, total := d.B, 0
	for i := 0; i < n; i++ {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(d.B)) {
			d.failf("string length of row %d", i)
			return nil
		}
		total += int(l)
		data = data[k:]
	}
	if total > len(data) {
		d.failf("strings of %d bytes, %d left", total, len(data))
		return nil
	}
	all := string(data[:total])
	out := make([]string, n)
	for i := range out {
		l, k := binary.Uvarint(d.B)
		d.B = d.B[k:]
		out[i], all = all[:l], all[l:]
	}
	d.B = d.B[total:]
	return out
}

// repeats reports whether any tid occurs twice.
func repeats(tids []relation.TID) bool {
	if len(tids) < 2 {
		return false
	}
	sorted := slices.Clone(tids)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}
