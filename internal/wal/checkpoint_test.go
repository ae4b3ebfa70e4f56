package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// The golden files are checkpoints written from GoldenCheckpoint by
// the encoders of the formats before the current one: goldenV1Path in
// CQCKPT01 (one frame per table), goldenV2Path in CQCKPT02 (chunks of
// row-form values).
const (
	goldenV1Path = "testdata/checkpoint-00000003.ckpt"
	goldenV2Path = "testdata/checkpoint-v2.ckpt"
)

// GoldenCheckpoint is the checkpoint the golden files hold:
// two tables of every column type, typed NULLs, delta rows that insert,
// modify and delete, and two CQ entries.
func GoldenCheckpoint() *Checkpoint {
	stocks := relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "qty", Type: relation.TInt},
		relation.Column{Name: "live", Type: relation.TBool},
	)
	trades := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "n", Type: relation.TInt},
	)
	row := func(name string, price float64, qty int64, live bool) []relation.Value {
		return []relation.Value{relation.Str(name), relation.Float(price), relation.Int(qty), relation.Bool(live)}
	}
	return &Checkpoint{
		Seg:     3,
		TS:      29,
		NextTID: 12,
		Tables: []TableState{
			{
				Name:   "stocks",
				Schema: stocks,
				Tuples: []relation.Tuple{
					{TID: 1, Values: row("IBM", 120.5, 10, true)},
					{TID: 4, Values: row("DEC", 99, 0, false)},
					{TID: 7, Values: []relation.Value{relation.Str("HP"), relation.TypedNull(relation.TFloat), relation.Int(-3), relation.TypedNull(relation.TBool)}},
				},
				DeltaRows: []delta.Row{
					{TID: 7, TS: 21, New: []relation.Value{relation.Str("HP"), relation.TypedNull(relation.TFloat), relation.Int(-3), relation.TypedNull(relation.TBool)}},
					{TID: 4, TS: 24, Old: row("DEC", 98, 1, true), New: row("DEC", 99, 0, false)},
					{TID: 2, TS: 27, Old: row("SUN", 1.25, 5, true)},
				},
				LowWater: 20,
				Version:  9,
			},
			{
				Name:     "trades",
				Schema:   trades,
				Tuples:   []relation.Tuple{{TID: 11, Values: []relation.Value{relation.Str("a long enough symbol to need a two-byte length prefix, well past one hundred and twenty-seven bytes of string payload in a single value"), relation.Int(1 << 40)}}},
				LowWater: 29,
				Version:  1,
			},
		},
		CQs: []CQEntry{
			{
				Name: "q1", Query: "SELECT name FROM stocks WHERE price > 100",
				TriggerKind: 3, TriggerUpdates: 1, TriggerBound: 0.25, TriggerOn: "price * qty",
				Mode: 1, StopAfterN: 10, EpsilonMeasure: 2, NotifyEmpty: true,
				Seq: 4, LastExec: 27, Health: "probation",
			},
			{Name: "q2", Query: "SELECT sym, n FROM trades", TriggerKind: 3, Mode: 1, Seq: 1, LastExec: vclock.Timestamp(29)},
		},
	}
}

// GoldenV1 and GoldenV2 return the golden files' bytes.
func GoldenV1(t testing.TB) []byte { return readGolden(t, goldenV1Path) }
func GoldenV2(t testing.TB) []byte { return readGolden(t, goldenV2Path) }

func readGolden(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameCheckpoint compares checkpoints field by field as printed, so an
// empty row slice and a nil one compare equal.
func sameCheckpoint(a, b *Checkpoint) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

func encodeCheckpoint(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The golden CQCKPT01 file is refused with an error naming the way to
// bring it over, never read as a checkpoint.
func TestGoldenV1CheckpointLoads(t *testing.T) {
	v1 := GoldenV1(t)
	if string(v1[:len(ckptMagicV1)]) != ckptMagicV1 {
		t.Fatalf("golden file opens with %q", v1[:len(ckptMagicV1)])
	}
	ck, err := readCheckpoint(OSFS{}, goldenV1Path)
	if !errors.Is(err, ErrCheckpointV1) || ck != nil {
		t.Fatalf("golden v1 reads %+v, %v; want ErrCheckpointV1", ck, err)
	}
	if !strings.Contains(err.Error(), "take a checkpoint") {
		t.Fatalf("refusal %q names no remedy", err)
	}
}

// The golden CQCKPT02 file still loads, to the checkpoint it was
// written from, and reads back the same once rewritten in the current
// format.
func TestGoldenV2CheckpointLoads(t *testing.T) {
	v2 := GoldenV2(t)
	if string(v2[:len(ckptMagicV2)]) != ckptMagicV2 {
		t.Fatalf("golden file opens with %q", v2[:len(ckptMagicV2)])
	}
	got, err := readCheckpoint(OSFS{}, goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	want := GoldenCheckpoint()
	if !sameCheckpoint(got, want) {
		t.Fatalf("golden v2 reads\n %+v\nwant\n %+v", got, want)
	}
	v3 := encodeCheckpoint(t, got)
	if string(v3[:len(ckptMagic)]) != ckptMagic {
		t.Fatalf("writer opens with %q", v3[:len(ckptMagic)])
	}
	again, err := decodeCheckpoint(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCheckpoint(again, want) {
		t.Fatalf("rewritten golden reads\n %+v\nwant\n %+v", again, want)
	}
}

// The legacy reader brings a CQCKPT02 table's rows under its schema
// (relation.Schema.Conform) — untyped NULLs typed, an INT in a FLOAT
// column widened — so the current writer can write them back, and
// refuses a value that cannot be.
func TestV2ReaderConformsRows(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "live", Type: relation.TBool},
	)
	legacy := func(vals []relation.Value) []byte {
		t.Helper()
		var buf bytes.Buffer
		buf.WriteString(ckptMagicV2)
		frame := func(build func(e *enc)) {
			e := &enc{}
			build(e)
			buf.Write(appendFrame(nil, e.B))
		}
		frame(func(e *enc) {
			e.Byte(ckKindHeader)
			for _, v := range []uint64{1, 2, 3, 1, 0} { // seg, ts, next tid, tables, cqs
				e.Uvarint(v)
			}
		})
		frame(func(e *enc) {
			e.Byte(ckKindTable)
			e.Str("t")
			e.Schema(schema)
			for _, v := range []uint64{0, 1, 1, 1} { // low water, version, tuples, delta rows
				e.Uvarint(v)
			}
		})
		frame(func(e *enc) {
			e.Byte(ckKindChunk)
			e.Uvarint(7)
			if err := e.vals(vals); err != nil {
				t.Fatal(err)
			}
			if err := e.deltaRow(delta.Row{TID: 7, TS: 2, New: vals}); err != nil {
				t.Fatal(err)
			}
		})
		frame(func(e *enc) { e.Byte(ckKindEnd) })
		return buf.Bytes()
	}
	ck, err := decodeCheckpoint(bytes.NewReader(legacy([]relation.Value{relation.Int(3), relation.NullValue()})))
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Value{relation.Float(3), relation.TypedNull(relation.TBool)}
	tb := ck.Tables[0]
	if fmt.Sprint(tb.Tuples[0].Values) != fmt.Sprint(want) || fmt.Sprint(tb.DeltaRows[0].New) != fmt.Sprint(want) ||
		tb.Tuples[0].Values[1].Kind != relation.TBool || tb.DeltaRows[0].New[1].Kind != relation.TBool {
		t.Fatalf("conformed to %v / %v, want %v", tb.Tuples[0].Values, tb.DeltaRows[0].New, want)
	}
	again, err := decodeCheckpoint(bytes.NewReader(encodeCheckpoint(t, ck)))
	if err != nil || !sameCheckpoint(again, ck) {
		t.Fatalf("rewritten: %+v, %v", again, err)
	}
	if _, err := decodeCheckpoint(bytes.NewReader(legacy([]relation.Value{relation.Str("x"), relation.Bool(true)}))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a string in a FLOAT column read with %v, want ErrCorrupt", err)
	}
}

// wideCheckpoint holds one table of rows four-int rows and deltas delta
// rows (an update each), the shape of the engine benchmark's table.
func wideCheckpoint(rows, deltas int) *Checkpoint {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Type: relation.TInt},
		relation.Column{Name: "b", Type: relation.TInt},
		relation.Column{Name: "c", Type: relation.TInt},
		relation.Column{Name: "d", Type: relation.TInt},
	)
	row := func(n int) []relation.Value {
		v := int64(n)
		return []relation.Value{relation.Int(v), relation.Int(v + 1), relation.Int(v + 2), relation.Int(v + 3)}
	}
	t := TableState{Name: "t", Schema: schema, LowWater: 1, Version: uint64(rows + deltas)}
	t.Tuples = make([]relation.Tuple, rows)
	for i := range t.Tuples {
		t.Tuples[i] = relation.Tuple{TID: relation.TID(i + 1), Values: row(i)}
	}
	t.DeltaRows = make([]delta.Row, deltas)
	for i := range t.DeltaRows {
		t.DeltaRows[i] = delta.Row{TID: relation.TID(i%rows + 1), TS: vclock.Timestamp(i + 2), Old: row(i), New: row(i + 1)}
	}
	return &Checkpoint{Seg: 9, TS: vclock.Timestamp(deltas + 2), NextTID: uint64(rows + 1), Tables: []TableState{t}}
}

// countWriter counts Write calls and the largest one.
type countWriter struct{ writes, largest int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// A table is written as a header frame and chunk frames of at most
// chunkSize plus one row, each in a Write of its own, and reads back
// whole.
func TestCheckpointTableSpansChunks(t *testing.T) {
	ck := wideCheckpoint(8000, 3000)
	var cw countWriter
	if err := writeCheckpointTo(&cw, ck); err != nil {
		t.Fatal(err)
	}
	const frameMax = 8 + chunkSize + 128 // header, payload, one delta row
	if cw.largest > frameMax {
		t.Fatalf("largest write %d bytes, want at most %d", cw.largest, frameMax)
	}
	// The magic, the file header, the table header, its chunks, the end.
	if chunks := cw.writes - 4; chunks < 3 {
		t.Fatalf("%d chunk frames, want the table over at least 3", chunks)
	}
	got, err := decodeCheckpoint(bytes.NewReader(encodeCheckpoint(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCheckpoint(got, ck) {
		t.Fatal("chunked table reads back different")
	}
}

var (
	benchCkOnce sync.Once
	benchCk     *Checkpoint
)

// BenchmarkWriteCheckpoint encodes a checkpoint of a 100k-row, four-int
// table with 30k delta rows to io.Discard: the writer's own time and
// allocations, without the disk.
func BenchmarkWriteCheckpoint(b *testing.B) {
	benchCkOnce.Do(func() { benchCk = wideCheckpoint(100_000, 30_000) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeCheckpointTo(io.Discard, benchCk); err != nil {
			b.Fatal(err)
		}
	}
}

// The writer's memory is one frame buffer, whatever the table's size:
// under 1 MiB per checkpoint of BenchmarkWriteCheckpoint's table (its
// image is about 9 MB).
func TestWriteCheckpointAllocs(t *testing.T) {
	r := testing.Benchmark(BenchmarkWriteCheckpoint)
	if r.N == 0 {
		t.Fatal("the benchmark did not run")
	}
	if got := r.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("writing a checkpoint allocates %d bytes, want under 1 MiB", got)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint reader: it
// must never panic nor allocate more than a fixed multiple of its input
// (a length prefix or a count claiming more than the bytes present
// costs nothing), and whatever it reads must write and read back the
// same.
func FuzzCheckpoint(f *testing.F) {
	var seedT testing.T
	v3 := encodeCheckpoint(&seedT, GoldenCheckpoint())
	f.Add(GoldenV2(&seedT))
	f.Add(v3)
	f.Add(encodeCheckpoint(&seedT, wideCheckpoint(40, 10)))
	f.Add(v3[:len(v3)-3])
	flipped := append([]byte{}, v3...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := decodeCheckpoint(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+1<<20); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		once := encodeCheckpoint(t, ck)
		again, err := decodeCheckpoint(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("a written checkpoint does not read back: %v", err)
		}
		if twice := encodeCheckpoint(t, again); !bytes.Equal(once, twice) {
			t.Fatal("a written checkpoint reads back different")
		}
	})
}
