// Package relation implements the relational substrate used throughout the
// continual query system: typed values, schemas, tuples with stable tuple
// identifiers (tids), and materialized relations with hash indexes and set
// operations.
//
// The paper describes differential relations and the DRA algorithm in
// relational terms (Section 4); this package provides exactly that model.
// Tuples carry tids because differential relations key their rows on tid
// (Section 4.1: "No tid can appear in multiple rows").
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the value types supported by the engine. It is one
// byte wide so that a Value's tag and NULL flag share a word; the WAL and
// checkpoints write it as a u64, the wire protocol as an int.
type Type uint8

// Supported column types.
const (
	TInt Type = iota + 1
	TFloat
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single typed, nullable value. The zero Value is the SQL NULL
// of no particular type. It is 32 bytes: results, windows and replicas'
// row images are slices of Values, so its size is the live heap's unit.
// n holds the integer, the float's bits or the bool (1 = true) according
// to Kind; s the string.
type Value struct {
	Kind Type
	Null bool

	n uint64
	s string
}

// Null value constructor.
func NullValue() Value { return Value{Null: true} }

// TypedNull returns a NULL tagged with a type, used for the empty halves of
// differential relation rows.
func TypedNull(t Type) Value { return Value{Kind: t, Null: true} }

// Int wraps an int64.
func Int(v int64) Value { return Value{Kind: TInt, n: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{Kind: TFloat, n: math.Float64bits(v)} }

// String wraps a string. (Shadowing fmt.Stringer is intentional and local.)
func Str(v string) Value { return Value{Kind: TString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	if v {
		return Value{Kind: TBool, n: 1}
	}
	return Value{Kind: TBool}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Null }

// AsInt returns the integer payload. It is valid only for TInt values.
func (v Value) AsInt() int64 { return int64(v.n) }

// AsFloat returns the value as a float64, converting integers.
func (v Value) AsFloat() float64 {
	if v.Kind == TInt {
		return float64(int64(v.n))
	}
	return math.Float64frombits(v.n)
}

// AsString returns the string payload. It is valid only for TString values.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only for TBool values.
func (v Value) AsBool() bool { return v.n != 0 }

// IsNumeric reports whether the value is of a numeric type.
func (v Value) IsNumeric() bool { return v.Kind == TInt || v.Kind == TFloat }

// Equal reports deep equality; NULLs are equal only to NULLs of any type.
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return v.Null && o.Null
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.Kind == TInt && o.Kind == TInt {
			return v.n == o.n
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case TString:
		return v.s == o.s
	case TBool:
		return v.n == o.n
	default:
		return false
	}
}

// Compare orders two values: -1, 0 or +1. NULL sorts before everything.
// Comparing incompatible kinds orders by kind, so sorting is total.
func (v Value) Compare(o Value) int {
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.Kind == TInt && o.Kind == TInt {
			switch a, b := int64(v.n), int64(o.n); {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case TString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	case TBool:
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		}
		return 0
	}
	return 0
}

// Hash folds the value into h (an FNV-1a stream).
func (v Value) hashInto(h *fnvState) {
	if v.Null {
		h.writeByte(0)
		return
	}
	h.writeByte(byte(v.Kind))
	switch v.Kind {
	case TInt, TFloat:
		h.writeUint64(v.n)
	case TString:
		h.writeString(v.s)
	case TBool:
		if v.n != 0 {
			h.writeByte(1)
		} else {
			h.writeByte(2)
		}
	}
}

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "-"
	}
	switch v.Kind {
	case TInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case TFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case TString:
		return v.s
	case TBool:
		return strconv.FormatBool(v.AsBool())
	default:
		return "?"
	}
}

// fnvState is a tiny allocation-free FNV-1a hasher used for tuple and key
// hashing on hot paths.
type fnvState struct{ h uint64 }

func newFNV() *fnvState { return &fnvState{h: 1469598103934665603} }

func (f *fnvState) writeByte(b byte) {
	f.h ^= uint64(b)
	f.h *= 1099511628211
}

func (f *fnvState) writeUint64(v uint64) {
	for i := 0; i < 8; i++ {
		f.writeByte(byte(v >> (8 * i)))
	}
}

func (f *fnvState) writeString(s string) {
	for i := 0; i < len(s); i++ {
		f.writeByte(s[i])
	}
	f.writeByte(0xff) // separator so ("a","b") != ("ab","")
}

func (f *fnvState) sum() uint64 { return f.h }

// KeyHasher streams values into the hash HashValues computes, so typed
// columns can be hashed cell by cell — without first gathering a
// []Value key — and still land in the same bucket as a Value-keyed
// probe of the same index.
type KeyHasher struct{ s fnvState }

// NewKeyHasher returns a hasher in HashValues' initial state.
func NewKeyHasher() KeyHasher { return KeyHasher{s: *newFNV()} }

// Int, Float, Str, Bool and Null fold one non-NULL typed payload (or a
// NULL) into the hash exactly as Value.hashInto does.
func (k *KeyHasher) Int(v int64) { k.s.writeByte(byte(TInt)); k.s.writeUint64(uint64(v)) }

func (k *KeyHasher) Float(v float64) {
	k.s.writeByte(byte(TFloat))
	k.s.writeUint64(math.Float64bits(v))
}

func (k *KeyHasher) Str(v string) { k.s.writeByte(byte(TString)); k.s.writeString(v) }

func (k *KeyHasher) Bool(v bool) { Bool(v).hashInto(&k.s) }

func (k *KeyHasher) Null() { k.s.writeByte(0) }

// Sum returns the hash of everything folded in so far.
func (k *KeyHasher) Sum() uint64 { return k.s.sum() }

// HashValues hashes a slice of values; used for derived-tuple identity and
// join keys.
func HashValues(vs []Value) uint64 {
	h := newFNV()
	for _, v := range vs {
		v.hashInto(h)
	}
	return h.sum()
}

// CombineTIDs derives the tid of a joined tuple from its parents' tids,
// so join results have stable, provenance-based identity.
func CombineTIDs(a, b TID) TID {
	h := newFNV()
	h.writeUint64(uint64(a))
	h.writeUint64(uint64(b))
	return TID(h.sum())
}
