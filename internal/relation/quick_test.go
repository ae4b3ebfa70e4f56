package relation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate implements quick.Generator so testing/quick can draw random
// Values across all kinds, including NULLs.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	var v Value
	switch r.Intn(6) {
	case 0:
		v = Int(r.Int63() - math.MaxInt64/2)
	case 1:
		v = Float(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v.AsFloat()) {
			v = Float(0)
		}
	case 2:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		v = Str(string(b))
	case 3:
		v = Bool(r.Intn(2) == 0)
	case 4:
		v = NullValue()
	default:
		v = TypedNull(Type(1 + r.Intn(4)))
	}
	return reflect.ValueOf(v)
}

// Property: AppendBinary/UnmarshalBinary is the identity on Value.
func TestValueMarshalRoundTripQuick(t *testing.T) {
	f := func(v Value) bool {
		data, err := v.AppendBinary(nil)
		if err != nil {
			return false
		}
		var back Value
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		if v.IsNull() {
			return back.IsNull() && back.Kind == v.Kind
		}
		return back.Equal(v) && back.Kind == v.Kind
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Equal values hash identically.
func TestEqualValuesHashEqualQuick(t *testing.T) {
	f := func(v Value) bool {
		return HashValues([]Value{v}) == HashValues([]Value{v})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Compare(v, v) == 0.
func TestCompareAntisymmetricQuick(t *testing.T) {
	f := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a) && a.Compare(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over random triples.
func TestCompareTransitiveQuick(t *testing.T) {
	f := func(a, b, c Value) bool {
		vs := []Value{a, b, c}
		// Sort the triple by Compare and verify pairwise order holds.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if vs[i].Compare(vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 && vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: CombineTIDs is order-sensitive (provenance (a,b) differs from
// (b,a)) yet deterministic.
func TestCombineTIDsQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		x := CombineTIDs(TID(a), TID(b))
		y := CombineTIDs(TID(a), TID(b))
		if x != y {
			return false
		}
		if a != b && CombineTIDs(TID(a), TID(b)) == CombineTIDs(TID(b), TID(a)) {
			// Collisions are possible in principle but astronomically
			// unlikely for FNV over 16 bytes; treat as failure to catch
			// accidental symmetry.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueMarshalRoundTrip(t *testing.T) {
	vals := []Value{
		Int(-42),
		Float(3.25),
		Str("hello 'quoted'"),
		Bool(true),
		NullValue(),
		TypedNull(TFloat),
	}
	for _, v := range vals {
		data, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if !back.Equal(v) || back.Kind != v.Kind {
			t.Errorf("round trip %v -> %v", v, back)
		}
	}
	var bad Value
	if err := bad.UnmarshalBinary(nil); err == nil {
		t.Error("empty unmarshal should fail")
	}
	if err := bad.UnmarshalBinary([]byte{byte(TInt), 1, 2}); err == nil {
		t.Error("short int payload should fail")
	}
}
