package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMarshal reports a malformed encoded value.
var ErrMarshal = errors.New("relation: malformed encoded value")

// AppendBinary appends the value's compact encoding to dst
// (encoding.BinaryAppender): one tag byte (kind, with the high bit
// marking NULL) followed by the payload. The WAL writes a record's
// row-form values with it, so an encoder writing many values into one
// buffer allocates only when the buffer grows.
func (v Value) AppendBinary(dst []byte) ([]byte, error) {
	tag := byte(v.Kind)
	if v.Null {
		return append(dst, tag|0x80), nil
	}
	switch v.Kind {
	case TInt, TFloat:
		return binary.LittleEndian.AppendUint64(append(dst, tag), v.n), nil
	case TString:
		return append(append(dst, tag), v.s...), nil
	case TBool:
		return append(dst, tag, byte(v.n)), nil
	default:
		if v.Kind == 0 {
			// Untyped zero value: encode as untyped NULL.
			return append(dst, 0x80), nil
		}
		return dst, fmt.Errorf("relation: cannot marshal kind %d", v.Kind)
	}
}

// UnmarshalBinary decodes a value written by AppendBinary.
func (v *Value) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty", ErrMarshal)
	}
	tag := data[0]
	kind := Type(tag & 0x7f)
	if tag&0x80 != 0 {
		*v = Value{Kind: kind, Null: true}
		return nil
	}
	payload := data[1:]
	switch kind {
	case TInt:
		if len(payload) != 8 {
			return fmt.Errorf("%w: int payload %d bytes", ErrMarshal, len(payload))
		}
		*v = Int(int64(binary.LittleEndian.Uint64(payload)))
	case TFloat:
		if len(payload) != 8 {
			return fmt.Errorf("%w: float payload %d bytes", ErrMarshal, len(payload))
		}
		*v = Float(math.Float64frombits(binary.LittleEndian.Uint64(payload)))
	case TString:
		*v = Str(string(payload))
	case TBool:
		if len(payload) != 1 {
			return fmt.Errorf("%w: bool payload %d bytes", ErrMarshal, len(payload))
		}
		*v = Bool(payload[0] == 1)
	default:
		return fmt.Errorf("%w: kind %d", ErrMarshal, kind)
	}
	return nil
}
