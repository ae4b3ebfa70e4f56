package wal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

func testSchema(t testing.TB) relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "qty", Type: relation.TInt},
	)
}

func testRecords(t testing.TB) []*Record {
	t.Helper()
	schema := testSchema(t)
	return []*Record{
		{Kind: KindCreateTable, Table: "stocks", Schema: schema},
		{Kind: KindTx, TS: 42, Rows: []TxRow{
			{Table: "stocks", Row: delta.Row{TID: 1, TS: 42, New: []relation.Value{relation.Str("DEC"), relation.Float(99.5), relation.Int(10)}}},
			{Table: "stocks", Row: delta.Row{TID: 2, TS: 42,
				Old: []relation.Value{relation.Str("IBM"), relation.Float(50), relation.Int(3)},
				New: []relation.Value{relation.Str("IBM"), relation.NullValue(), relation.Int(0)}}},
			{Table: "stocks", Row: delta.Row{TID: 3, TS: 42, Old: []relation.Value{relation.Str("HP"), relation.Float(1), relation.Int(1)}}},
		}},
		{Kind: KindCQRegister, CQ: &CQEntry{
			Name: "q1", Query: "SELECT name FROM stocks WHERE price > 100",
			TriggerKind: 3, TriggerUpdates: 1, TriggerBound: 0.25, TriggerOn: "price * qty",
			Mode: 1, StopAfterN: 10, EpsilonMeasure: 2, NotifyEmpty: true,
			Health: "quarantined", Seq: 4, LastExec: 41,
		}},
		{Kind: KindCQRegister, CQ: &CQEntry{Name: "q2", Query: "SELECT * FROM stocks", TriggerKind: 3, Mode: 1}},
		{Kind: KindCQExec, Name: "q1", Seq: 5, ExecTS: 43, Terminated: true},
		{Kind: KindCQExec, Name: "q2", Seq: 1, ExecTS: 44},
		// A materializing CQ's registration and execution, each standing
		// for the commit into its target at TS.
		{Kind: KindCQRegister, TS: 46, CQ: &CQEntry{Name: "m", Query: "SELECT name INTO hot FROM stocks", TriggerKind: 3, Mode: 1, Seq: 1, LastExec: 45}},
		{Kind: KindCQExec, Name: "m", Seq: 2, ExecTS: 47, TS: 48},
		{Kind: KindDropTable, Table: "stocks"},
		{Kind: KindCQDrop, Name: "q1"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords(t) {
		payload, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode kind %d: %v", rec.Kind, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode kind %d: %v", rec.Kind, err)
		}
		if got.Kind != rec.Kind || got.TS != rec.TS || got.Table != rec.Table ||
			got.Name != rec.Name || got.Seq != rec.Seq || got.ExecTS != rec.ExecTS ||
			got.Terminated != rec.Terminated {
			t.Fatalf("kind %d: scalar fields differ: %+v vs %+v", rec.Kind, got, rec)
		}
		if !got.Schema.Equal(rec.Schema) {
			t.Fatalf("kind %d: schema differs", rec.Kind)
		}
		if !reflect.DeepEqual(got.Rows, rec.Rows) {
			t.Fatalf("kind %d: rows differ:\n got %+v\nwant %+v", rec.Kind, got.Rows, rec.Rows)
		}
		if !reflect.DeepEqual(got.CQ, rec.CQ) {
			t.Fatalf("kind %d: cq entry differs:\n got %+v\nwant %+v", rec.Kind, got.CQ, rec.CQ)
		}
	}
}

// legacyLog hand-builds a log in the layout written before CQ results
// left it: the registration carries a strategy name and the initial
// result, and the execution carries its result-delta rows. It returns
// the payloads and the records each must decode to, with those dropped.
//
// The log is a complete history: q1 = σ_{price>100} stocks registers at
// ts 1 over DEC and IBM, executes at ts 2 after HP arrives, and DEC
// crosses the threshold at ts 3 with no execution after it.
func legacyLog(t testing.TB) (payloads [][]byte, want []*Record) {
	str := func(s string) []relation.Value { return []relation.Value{relation.Str(s)} }
	stock := func(name string, price float64, qty int64) []relation.Value {
		return []relation.Value{relation.Str(name), relation.Float(price), relation.Int(qty)}
	}
	entry := CQEntry{Name: "q1", Query: "SELECT name FROM stocks WHERE price > 100",
		TriggerKind: 3, TriggerUpdates: 1, Mode: 1, Seq: 1, LastExec: 1}
	tx := func(ts uint64, rows ...delta.Row) *Record {
		rec := &Record{Kind: KindTx, TS: vclock.Timestamp(ts)}
		for _, r := range rows {
			r.TS = rec.TS
			rec.Rows = append(rec.Rows, TxRow{Table: "stocks", Row: r})
		}
		return rec
	}
	want = []*Record{
		{Kind: KindCreateTable, Table: "stocks", Schema: testSchema(t)},
		tx(1, delta.Row{TID: 1, New: stock("DEC", 99.5, 10)}, delta.Row{TID: 2, New: stock("IBM", 150, 3)}),
		{Kind: KindCQRegister, CQ: &entry},
		tx(2, delta.Row{TID: 3, New: stock("HP", 120, 1)}),
		{Kind: KindCQExec, Name: "q1", Seq: 2, ExecTS: 2},
		tx(3, delta.Row{TID: 1, Old: stock("DEC", 99.5, 10), New: stock("DEC", 130, 10)}),
	}
	for _, rec := range want {
		e := &enc{}
		switch rec.Kind {
		case KindCQRegister:
			c := rec.CQ
			e.Byte(byte(KindCQRegister))
			e.Str(c.Name)
			e.Str(c.Query)
			e.Uvarint(uint64(c.TriggerKind))
			e.Uvarint(uint64(c.TriggerEvery))
			e.Uvarint(floatBits(c.TriggerBound))
			e.Str(c.TriggerOn)
			e.Uvarint(uint64(c.TriggerUpdates))
			e.Uvarint(uint64(c.Mode))
			e.Uvarint(uint64(c.StopAfterN))
			e.Uvarint(uint64(c.EpsilonMeasure))
			e.Bool(c.NotifyEmpty)
			e.Str("incremental") // strategy
			e.Uvarint(uint64(c.Seq))
			e.Uvarint(uint64(c.LastExec))
			e.Bool(c.Terminated)
			e.Str(c.Health)
			e.Bool(true) // result present: π_name of IBM
			e.Schema(relation.MustSchema(relation.Column{Name: "name", Type: relation.TString}))
			e.Uvarint(1)
			e.Uvarint(2)
			_ = e.vals(str("IBM"))
		case KindCQExec:
			e.Byte(byte(KindCQExec))
			e.Str(rec.Name)
			e.Uvarint(uint64(rec.Seq))
			e.Uvarint(uint64(rec.ExecTS))
			e.Bool(rec.Terminated)
			e.Uvarint(1) // one result-delta row: HP inserted
			_ = e.deltaRow(delta.Row{TID: 3, TS: 2, New: str("HP")})
		default:
			p, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			e.B = p
		}
		payloads = append(payloads, e.B)
	}
	return payloads, want
}

// appendFrame wraps a payload in the length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	out := append(append(dst, hdr[:]...), payload...)
	putFrameHeader(out[len(dst):])
	return out
}

// LegacySegment frames legacyLog into a segment file image, and
// CurrentSegment frames the same records as this codec writes them.
func LegacySegment(t testing.TB) []byte {
	payloads, _ := legacyLog(t)
	return segmentImage(legacySegMagic, payloads)
}

// LegacySegmentOf frames recs, as this codec writes them, behind the
// magic of a segment written before derived commits rode their CQ
// records.
func LegacySegmentOf(t testing.TB, recs ...*Record) []byte {
	var payloads [][]byte
	for _, rec := range recs {
		p, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return segmentImage(legacySegMagic, payloads)
}

func CurrentSegment(t testing.TB) []byte {
	_, recs := legacyLog(t)
	var payloads [][]byte
	for _, rec := range recs {
		p, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return segmentImage(segMagic, payloads)
}

func segmentImage(magic string, payloads [][]byte) []byte {
	img := []byte(magic)
	for _, p := range payloads {
		img = appendFrame(img, p)
	}
	return img
}

// A record in the legacy layout decodes with its strategy, result and
// result-delta rows dropped, and re-encodes shorter in the same layout.
func TestLegacyLayoutDecodes(t *testing.T) {
	payloads, want := legacyLog(t)
	for i, p := range payloads {
		got, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("record %d (kind %d): %v", i, want[i].Kind, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d decodes to\n %+v\nwant\n %+v", i, got, want[i])
		}
		again, err := encodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		if k := got.Kind; (k == KindCQRegister || k == KindCQExec) && len(again) >= len(p) {
			t.Errorf("kind %d: re-encoded to %d bytes, legacy %d; the dropped slots are still written", k, len(again), len(p))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload, err := encodeRecord(&Record{Kind: KindDropTable, Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(append(payload, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

func TestFrameReaderEndings(t *testing.T) {
	payload, err := encodeRecord(&Record{Kind: KindDropTable, Table: "stocks"})
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, payload)

	// Clean stream of two frames then EOF.
	stream := append(append([]byte{}, frame...), frame...)
	fr := &frameReader{r: bytes.NewReader(stream)}
	for i := 0; i < 2; i++ {
		got, err := fr.next()
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end: got %v, want EOF", err)
	}

	// Every strict prefix of a frame after a whole frame is torn.
	for cut := 1; cut < len(frame); cut++ {
		stream := append(append([]byte{}, frame...), frame[:cut]...)
		fr := &frameReader{r: bytes.NewReader(stream)}
		if _, err := fr.next(); err != nil {
			t.Fatalf("cut %d: first frame: %v", cut, err)
		}
		if _, err := fr.next(); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d: got %v, want ErrTorn", cut, err)
		}
	}

	// A bit flip anywhere in a complete frame is corruption (or, in the
	// length prefix, possibly a torn/oversized read) — never a success.
	for i := 0; i < len(frame); i++ {
		mutated := append([]byte{}, frame...)
		mutated[i] ^= 0x40
		fr := &frameReader{r: bytes.NewReader(mutated)}
		got, err := fr.next()
		if err == nil {
			t.Fatalf("bit flip at %d: decoded %x without error", i, got)
		}
	}
}

// txRecord is a KindTx record of n modifications over testSchema.
func txRecord(n int) *Record {
	rec := &Record{Kind: KindTx, TS: 9}
	for i := 0; i < n; i++ {
		rec.Rows = append(rec.Rows, TxRow{Table: "stocks", Row: delta.Row{TID: relation.TID(i + 1), TS: 9,
			Old: []relation.Value{relation.Str("IBM"), relation.Float(50.25), relation.Int(int64(i))},
			New: []relation.Value{relation.Str("IBM"), relation.NullValue(), relation.Int(int64(i + 1))}}})
	}
	return rec
}

// A value is encoded in place, as its AppendBinary bytes behind their
// uvarint length — including a string long enough to need a wider
// length prefix — and a framed record is the frame of its payload.
func TestValueEncodesInPlace(t *testing.T) {
	vals := []relation.Value{
		relation.Int(-7), relation.Float(2.5), relation.Bool(true), relation.NullValue(), {},
		relation.Str(""), relation.Str(string(bytes.Repeat([]byte("x"), 126))),
		relation.Str(string(bytes.Repeat([]byte("y"), 127))), relation.Str(string(bytes.Repeat([]byte("z"), 20_000))),
	}
	got, want := &enc{batch.Enc{B: []byte{0xAB}}}, &enc{batch.Enc{B: []byte{0xAB}}}
	if err := got.vals(vals); err != nil {
		t.Fatal(err)
	}
	want.Uvarint(uint64(len(vals)) + 1)
	for _, v := range vals {
		p, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Uvarint(uint64(len(p)))
		want.B = append(want.B, p...)
	}
	if !bytes.Equal(got.B, want.B) {
		t.Fatalf("in-place encoding differs from length + AppendBinary:\n got %x\nwant %x", got.B, want.B)
	}

	rec := txRecord(3)
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := appendRecordFrame([]byte("head"), rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := appendFrame([]byte("head"), payload); !bytes.Equal(framed, want) {
		t.Fatalf("appendRecordFrame = %x, want %x", framed, want)
	}
}

// Encoding a transaction into the log's reused frame buffer allocates
// nothing per value: 64 rows cost what 8 do.
func TestTxEncodingAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rec := txRecord(n)
		buf := make([]byte, 0, 64<<10)
		return testing.AllocsPerRun(50, func() {
			var err error
			if buf, err = appendRecordFrame(buf[:0], rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Fatalf("encoding a KindTx record: %v allocs for 8 rows, %v for 64", a8, a64)
	}
}

// FuzzWALRecord mirrors FuzzCodecRecv for the WAL codec: arbitrary
// bytes — truncations, bit flips, corrupted length fields — must never
// panic, mis-frame, or allocate unboundedly; the reader either yields
// checksum-valid records or stops with a typed error.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5})
	var seedT testing.T
	var stream []byte
	for _, rec := range testRecords(&seedT) {
		payload, err := encodeRecord(rec)
		if err != nil {
			continue
		}
		stream = appendFrame(stream, payload)
	}
	f.Add(stream)
	f.Add(LegacySegment(&seedT)[len(legacySegMagic):])
	f.Add(stream[:len(stream)-3])
	flipped := append([]byte{}, stream...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		for i := 0; i < 64; i++ {
			payload, err := fr.next()
			if err != nil {
				return // EOF, torn, or corrupt — all clean stops
			}
			// A frame that passed its checksum must decode or fail
			// cleanly; decodeRecord must never panic on any payload.
			if _, err := decodeRecord(payload); err != nil {
				return
			}
		}
	})
}
