package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMarshal reports a malformed encoded value.
var ErrMarshal = errors.New("relation: malformed encoded value")

// MarshalBinary encodes the value compactly: one tag byte (kind, with the
// high bit marking NULL) followed by the payload. encoding/gob picks this
// up automatically, which is how values travel over the remote protocol.
func (v Value) MarshalBinary() ([]byte, error) {
	tag := byte(v.Kind)
	if v.Null {
		tag |= 0x80
		return []byte{tag}, nil
	}
	switch v.Kind {
	case TInt, TFloat:
		buf := make([]byte, 9)
		buf[0] = tag
		binary.LittleEndian.PutUint64(buf[1:], v.n)
		return buf, nil
	case TString:
		buf := make([]byte, 1+len(v.s))
		buf[0] = tag
		copy(buf[1:], v.s)
		return buf, nil
	case TBool:
		return []byte{tag, byte(v.n)}, nil
	default:
		if v.Kind == 0 {
			// Untyped zero value: encode as untyped NULL.
			return []byte{0x80}, nil
		}
		return nil, fmt.Errorf("relation: cannot marshal kind %d", v.Kind)
	}
}

// UnmarshalBinary decodes a value written by MarshalBinary.
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
