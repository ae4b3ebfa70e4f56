package relation

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Type
		str  string
	}{
		{"int", Int(42), TInt, "42"},
		{"negative int", Int(-7), TInt, "-7"},
		{"float", Float(1.5), TFloat, "1.5"},
		{"string", Str("IBM"), TString, "IBM"},
		{"bool true", Bool(true), TBool, "true"},
		{"bool false", Bool(false), TBool, "false"},
		{"null", NullValue(), 0, "-"},
		{"typed null", TypedNull(TInt), TInt, "-"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind != tt.kind {
				t.Errorf("Kind = %v, want %v", tt.v.Kind, tt.kind)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
	if Int(5).AsInt() != 5 {
		t.Error("AsInt round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("AsFloat round trip failed")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString round trip failed")
	}
	if !Bool(true).AsBool() {
		t.Error("AsBool round trip failed")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"equal ints", Int(1), Int(1), true},
		{"unequal ints", Int(1), Int(2), false},
		{"int float cross equal", Int(3), Float(3.0), true},
		{"int float cross unequal", Int(3), Float(3.5), false},
		{"strings equal", Str("a"), Str("a"), true},
		{"strings unequal", Str("a"), Str("b"), false},
		{"bools", Bool(true), Bool(true), true},
		{"null vs null", NullValue(), NullValue(), true},
		{"typed null vs null", TypedNull(TInt), NullValue(), true},
		{"null vs int", NullValue(), Int(0), false},
		{"string vs int", Str("1"), Int(1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("Equal not symmetric for %v, %v", tt.a, tt.b)
			}
		})
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want int
	}{
		{"int lt", Int(1), Int(2), -1},
		{"int gt", Int(2), Int(1), 1},
		{"int eq", Int(2), Int(2), 0},
		{"float int cross", Float(1.5), Int(2), -1},
		{"string lt", Str("abc"), Str("abd"), -1},
		{"bool order", Bool(false), Bool(true), -1},
		{"null first", NullValue(), Int(-999), -1},
		{"null eq null", NullValue(), NullValue(), 0},
		{"cross kind total order", Int(1), Str("a"), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
			if got := tt.b.Compare(tt.a); got != -tt.want {
				t.Errorf("Compare not antisymmetric")
			}
		})
	}
}

func TestHashValuesSeparator(t *testing.T) {
	// ("a","b") must not hash like ("ab","").
	a := HashValues([]Value{Str("a"), Str("b")})
	b := HashValues([]Value{Str("ab"), Str("")})
	if a == b {
		t.Error("string concatenation collision in HashValues")
	}
}

func TestHashValuesDeterministic(t *testing.T) {
	vs := []Value{Int(1), Float(2.5), Str("x"), Bool(true), NullValue()}
	if HashValues(vs) != HashValues(vs) {
		t.Error("HashValues not deterministic")
	}
}

// Property: Compare defines a total order consistent with Equal.
func TestValueCompareConsistentWithEqual(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(5) {
		case 0:
			return Int(int64(r.Intn(100) - 50))
		case 1:
			return Float(float64(r.Intn(100)) / 4)
		case 2:
			return Str(string(rune('a' + r.Intn(4))))
		case 3:
			return Bool(r.Intn(2) == 0)
		default:
			return NullValue()
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := gen(r), gen(r)
		eq := a.Equal(b)
		cmp := a.Compare(b)
		if eq && cmp != 0 {
			t.Fatalf("%v == %v but Compare = %d", a, b, cmp)
		}
		// Note: cross-kind numerics can compare 0 without Equal only when
		// equal numerically, in which case Equal is also true; so cmp==0
		// for numerics implies eq.
		if cmp == 0 && a.IsNumeric() && b.IsNumeric() && !eq {
			t.Fatalf("numeric Compare=0 but not Equal: %v vs %v", a, b)
		}
	}
}

// Property: hashing is injective enough that equal value slices hash equal.
func TestHashValuesEqualSlicesProperty(t *testing.T) {
	f := func(xs []int64) bool {
		vs := make([]Value, len(xs))
		ws := make([]Value, len(xs))
		for i, x := range xs {
			vs[i] = Int(x)
			ws[i] = Int(x)
		}
		return HashValues(vs) == HashValues(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueLayout guards the size results, windows and row images are
// multiples of: a tag byte, a NULL byte, one payload word, one string.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("Value is %d bytes, want at most 32", got)
	}
}

// TestValueEncodingsPinned pins what outlives a process or crosses a
// wire — the marshalled bytes, and the value hash behind derived tids,
// group keys and join keys — to the bytes and hashes of the 56-byte
// five-field layout, on the values where a shared payload word could go
// wrong: the int64 extremes, both zeros, NaN, infinities, the empty
// string, both bools, both NULL flavours.
func TestValueEncodingsPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pinned := []struct {
		v     Value
		bytes string
		hash  uint64
	}{
		{Int(0), "010000000000000000", 0x4f987be6ba3a2ea6},
		{Int(-1), "01ffffffffffffffff", 0xccfb417fa672391e},
		{Int(math.MinInt64), "010000000000000080", 0x4f97fbe6ba395526},
		{Int(math.MaxInt64), "01ffffffffffffff7f", 0xccfbc17fa673129e},
		{Float(0), "020000000000000000", 0xbc2e2689259f3893},
		{Float(negZero), "020000000000000080", 0xbc2da689259e5f13},
		{Float(1.5), "02000000000000f83f", 0xbd22a389266ec572},
		{Float(math.NaN()), "02010000000000f87f", 0x9fa452801cc295e3},
		{Float(math.Inf(-1)), "02000000000000f0ff", 0xbd3de3892685f9ea},
		{Str(""), "03", 0x9a5ee000c5400dcd},
		{Str("IBM"), "0349424d", 0x6a801a713d85597},
		{Bool(true), "0401", 0x9a76aa00c55443ec},
		{Bool(false), "0400", 0x9a76ad00c5544905},
		{NullValue(), "80", 0x44bd2bd473ccf799},
		{TypedNull(TFloat), "82", 0x44bd2bd473ccf799},
	}
	all := make([]Value, 0, len(pinned))
	for _, p := range pinned {
		all = append(all, p.v)
		b, err := p.v.AppendBinary(nil)
		if err != nil || hex.EncodeToString(b) != p.bytes {
			t.Errorf("%v marshals to %x (err %v), want %s", p.v, b, err, p.bytes)
		}
		var back Value
		if err := back.UnmarshalBinary(b); err != nil {
			t.Errorf("%v: unmarshal: %v", p.v, err)
		}
		// NaN != NaN under Equal, so compare the re-marshalled bytes.
		if again, _ := back.AppendBinary(nil); back.Kind != p.v.Kind || back.Null != p.v.Null || !bytes.Equal(again, b) {
			t.Errorf("%v does not survive a marshal round trip: got %v", p.v, back)
		}
		if got := HashValues([]Value{p.v}); got != p.hash {
			t.Errorf("%v hashes to %#x, want %#x", p.v, got, p.hash)
		}
		var kh KeyHasher = NewKeyHasher()
		switch {
		case p.v.Null:
			kh.Null()
		case p.v.Kind == TInt:
			kh.Int(p.v.AsInt())
		case p.v.Kind == TFloat:
			kh.Float(p.v.AsFloat())
		case p.v.Kind == TString:
			kh.Str(p.v.AsString())
		default:
			kh.Bool(p.v.AsBool())
		}
		if kh.Sum() != p.hash {
			t.Errorf("%v: the cell-wise key hash %#x differs from the value hash %#x", p.v, kh.Sum(), p.hash)
		}
	}
	if got := HashValues(all); got != 0xe603d3ea2c946cc4 {
		t.Errorf("the row of all pinned values hashes to %#x, want 0xe603d3ea2c946cc4", got)
	}
}

// TestValueSemanticsAtTheEdges: Equal, Compare and Conform across
// INT and FLOAT, at the values a shared payload word could confuse.
func TestValueSemanticsAtTheEdges(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	order := []Value{ // strictly ascending under Compare
		TypedNull(TInt), Float(math.Inf(-1)), Int(math.MinInt64), Int(-1), Float(-0.5), Int(0), Float(1.5), Int(2), Int(math.MaxInt64 - 1024), Float(math.Inf(1)),
	}
	for i, a := range order {
		for j, b := range order {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Compare(b); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if got := a.Equal(b); got != (i == j) {
				t.Errorf("Equal(%v, %v) = %v", a, b, got)
			}
		}
	}
	// Int(-1) and Int(MaxInt64) share no bits' order with their unsigned
	// images; Int(3) and Float(3) are one number; the zeros are equal but
	// hash apart (as before: the hash is of the bits); NaN equals nothing,
	// itself included, and compares as unordered-equal.
	for _, c := range []struct {
		a, b  Value
		equal bool
		cmp   int
	}{
		{Int(-1), Int(math.MaxInt64), false, -1},
		{Int(3), Float(3), true, 0},
		{Float(3), Int(3), true, 0},
		{Float(0), Float(negZero), true, 0},
		{Int(0), Float(negZero), true, 0},
		{Float(nan), Float(nan), false, 0},
		{Float(nan), Int(1), false, 0},
		{Bool(false), Bool(true), false, -1},
		{Bool(true), Bool(true), true, 0},
		{Str("a"), Str("b"), false, -1},
		{Int(1), Str("1"), false, -1},
		{NullValue(), TypedNull(TString), true, 0},
	} {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
	}
	if HashValues([]Value{Float(0)}) == HashValues([]Value{Float(negZero)}) {
		t.Error("the two zeros hash alike; the hash is of the bits")
	}

	intCol, floatCol := Column{Name: "i", Type: TInt}, Column{Name: "f", Type: TFloat}
	for _, c := range []struct {
		col  Column
		in   Value
		want Value
		ok   bool
	}{
		{floatCol, Int(math.MinInt64), Float(math.MinInt64), true},
		{floatCol, Int(-7), Float(-7), true},
		{intCol, Float(-7), Int(-7), true},
		{intCol, Float(negZero), Int(0), true},
		{intCol, Float(1 << 53), Int(1 << 53), true},
		{intCol, Float(1.5), Value{}, false},
		{intCol, Float(nan), Value{}, false},
		{intCol, Str("1"), Value{}, false},
		{intCol, NullValue(), TypedNull(TInt), true},
		{floatCol, TypedNull(TInt), TypedNull(TFloat), true},
		{intCol, Int(math.MaxInt64), Int(math.MaxInt64), true},
	} {
		got, err := c.col.Conform(c.in)
		if (err == nil) != c.ok {
			t.Errorf("Conform(%v into %s) error = %v, want ok=%v", c.in, c.col.Type, err, c.ok)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("Conform(%v into %s) error %v does not wrap ErrTypeMismatch", c.in, c.col.Type, err)
			}
			continue
		}
		if got.Kind != c.want.Kind || got.Null != c.want.Null || !got.Equal(c.want) {
			t.Errorf("Conform(%v into %s) = %v (%s), want %v (%s)", c.in, c.col.Type, got, got.Kind, c.want, c.want.Kind)
		}
	}
}
