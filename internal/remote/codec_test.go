package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// rwBuf is an in-memory duplex stream for codec tests: writes append to
// out, reads consume in.
type rwBuf struct {
	in  bytes.Buffer
	out bytes.Buffer
}

func (b *rwBuf) Read(p []byte) (int, error)  { return b.in.Read(p) }
func (b *rwBuf) Write(p []byte) (int, error) { return b.out.Write(p) }

// encodeFrames gob-encodes the values through a sender codec and
// returns the raw wire bytes.
func encodeFrames(t *testing.T, vs ...any) []byte {
	t.Helper()
	var buf rwBuf
	c := newCodec(&buf)
	for _, v := range vs {
		if err := c.send(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.out.Bytes()
}

func TestCodecRoundTripsRequests(t *testing.T) {
	var buf rwBuf
	sender := newCodec(&buf)
	reqs := []Request{
		{Op: OpSnapshot, Table: "stocks"},
		{Op: OpDeltaSince, Table: "stocks", Since: 42, Until: 50, Compact: true},
		{Op: OpQuery, Query: "SELECT * FROM t"},
	}
	for _, r := range reqs {
		if err := sender.send(r); err != nil {
			t.Fatal(err)
		}
	}
	recv := newCodec(&rwBuf{in: *bytes.NewBuffer(buf.out.Bytes())})
	for i, want := range reqs {
		var got Request
		if err := recv.recv(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestCodecRejectsOversizedLengthPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	c := newCodec(&rwBuf{in: *bytes.NewBuffer(hdr[:])})
	var req Request
	err := c.recv(&req)
	if !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized prefix: err = %v, want errFrameTooLarge", err)
	}
}

func TestCodecRejectsTruncatedFrames(t *testing.T) {
	wire := encodeFrames(t, Request{Op: OpSnapshot, Table: "stocks"})
	// Cut the wire at every possible byte boundary; each truncation must
	// error, never hang or return a partial decode.
	for cut := 0; cut < len(wire); cut++ {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(wire[:cut])})
		var req Request
		err := c.recv(&req)
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(wire))
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation at %d: err = %v, want unexpected EOF", cut, err)
		}
	}
}

func TestCodecRejectsGarbagePayload(t *testing.T) {
	payload := []byte("this is not gob data, not even close!!")
	var wire bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	wire.Write(hdr[:])
	wire.Write(payload)
	c := newCodec(&rwBuf{in: wire})
	var req Request
	if err := c.recv(&req); err == nil {
		t.Error("garbage payload decoded successfully")
	}
}

func TestCodecRejectsTrailingGarbageInFrame(t *testing.T) {
	// A frame whose prefix claims more bytes than the gob value inside
	// it: the remainder signals a desynced or corrupted stream.
	inner := encodeFrames(t, Request{Op: OpNow})
	payload := append(inner[4:], []byte("junk")...)
	var wire bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	wire.Write(hdr[:])
	wire.Write(payload)
	c := newCodec(&rwBuf{in: wire})
	var req Request
	err := c.recv(&req)
	if err == nil {
		t.Fatal("padded frame decoded successfully")
	}
}

func TestCodecRecvGarbageTable(t *testing.T) {
	// Table-driven hostile inputs: none may panic, all must error.
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    {0x01, 0x02},
		"zero frame":      {0, 0, 0, 0},
		"tiny frame":      {0, 0, 0, 1, 0xFF},
		"all ones header": {0xFF, 0xFF, 0xFF, 0xFF},
		"random":          {0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x01},
	}
	for name, wire := range cases {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(wire)})
		var req Request
		if err := c.recv(&req); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

// FuzzCodecRecv throws arbitrary bytes at the receive path: it must
// error or decode cleanly, never panic or over-allocate.
func FuzzCodecRecv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	var seedT testing.T
	f.Add(encodeFrames(&seedT, Request{Op: OpDeltaSince, Table: "stocks", Since: 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(data)})
		var req Request
		for i := 0; i < 4; i++ { // drain a few frames if they parse
			if err := c.recv(&req); err != nil {
				return
			}
		}
	})
}
