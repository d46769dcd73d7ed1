package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

func batchSampleRel(rows int) *Relation {
	rel := NewRelation(NewSchema(
		Col("id", TypeInt), Col("score", TypeFloat),
		Col("name", TypeString), Col("ok", TypeBool)))
	for i := 0; i < rows; i++ {
		t := Tuple{NewInt(int64(i)), NewFloat(float64(i) / 3), NewString(fmt.Sprintf("n%d", i)), NewBool(i%2 == 0)}
		if i%7 == 3 { // sprinkle NULLs across every column
			t[i%4] = Null
		}
		_ = rel.Append(t)
	}
	return rel
}

func relationsEqual(t *testing.T, a, b *Relation) {
	t.Helper()
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("schema %v != %v", a.Schema, b.Schema)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("cardinality %d != %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		for j := range a.Tuples[i] {
			if !Equal(a.Tuples[i][j], b.Tuples[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, a.Tuples[i][j], b.Tuples[i][j])
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rel := batchSampleRel(500)
	cb := BatchFromRelation(rel)
	if cb.NumRows != rel.Len() {
		t.Fatalf("NumRows %d != %d", cb.NumRows, rel.Len())
	}
	for j, c := range cb.Cols {
		if c.Kind != rel.Schema.Columns[j].Type {
			t.Errorf("col %d kind %v, want %v (typed columns must not demote on nulls)", j, c.Kind, rel.Schema.Columns[j].Type)
		}
	}
	relationsEqual(t, rel, cb.ToRelation())
	// Random access agrees with the row image.
	for i := 0; i < cb.NumRows; i += 17 {
		for j := range cb.Cols {
			if !Equal(cb.Value(i, j), rel.Tuples[i][j]) {
				t.Fatalf("Value(%d,%d) = %v, want %v", i, j, cb.Value(i, j), rel.Tuples[i][j])
			}
		}
	}
}

func TestBatchDemotesMixedColumn(t *testing.T) {
	rel := NewRelation(NewSchema(Col("x", TypeInt)))
	_ = rel.Append(Tuple{NewInt(1)})
	_ = rel.Append(Tuple{NewString("two")}) // stray kind
	_ = rel.Append(Tuple{NewInt(3)})
	cb := BatchFromRelation(rel)
	if cb.Cols[0].Kind != TypeNull {
		t.Fatalf("mixed column kind %v, want generic", cb.Cols[0].Kind)
	}
	relationsEqual(t, rel, cb.ToRelation())
}

func TestBatchAppendBatch(t *testing.T) {
	a := BatchFromRelation(batchSampleRel(37))
	b := BatchFromRelation(batchSampleRel(23))
	if err := a.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows != 60 {
		t.Fatalf("NumRows %d, want 60", a.NumRows)
	}
	want := batchSampleRel(37)
	want.Tuples = append(want.Tuples, batchSampleRel(23).Tuples...)
	relationsEqual(t, want, a.ToRelation())

	// Kind reconciliation: appending a generic column demotes the
	// destination without losing values.
	ga := BatchFromRelation(func() *Relation {
		r := NewRelation(NewSchema(Col("x", TypeInt)))
		_ = r.Append(Tuple{NewInt(1)})
		return r
	}())
	gb := BatchFromRelation(func() *Relation {
		r := NewRelation(NewSchema(Col("x", TypeInt)))
		_ = r.Append(Tuple{NewString("s")})
		return r
	}())
	if err := ga.AppendBatch(gb); err != nil {
		t.Fatal(err)
	}
	if got := ga.Cols[0].Value(1); !Equal(got, NewString("s")) {
		t.Fatalf("merged value %v, want 's'", got)
	}
}

// TestBatchBinaryWireCompat pins the key codec property: a stream
// written from a ColumnBatch is byte-identical to one written from the
// equivalent Relation, and either decoder accepts either stream — on
// both sides of the 4096-tuple frame bound and across several frames.
func TestBatchBinaryWireCompat(t *testing.T) {
	for _, rows := range []int{0, 1, 4095, 4096, 9000, 10000} {
		rel := batchSampleRel(rows)
		cb := BatchFromRelation(rel)

		var fromRel, fromBatch bytes.Buffer
		if err := rel.WriteBinary(&fromRel); err != nil {
			t.Fatal(err)
		}
		if err := cb.WriteBinary(&fromBatch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromRel.Bytes(), fromBatch.Bytes()) {
			t.Fatalf("%d rows: batch encoder produced different bytes than the relation encoder", rows)
		}

		rowDecoded, err := ReadBinary(bytes.NewReader(fromBatch.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		relationsEqual(t, rel, rowDecoded)

		colDecoded, err := ReadBinaryColumnar(bytes.NewReader(fromRel.Bytes()), 1)
		if err != nil {
			t.Fatal(err)
		}
		relationsEqual(t, rel, colDecoded.ToRelation())
	}
}

// TestEncodeSmallAllocs pins the encoders' scratch buffer to the
// stream's size: a one-row answer must not pay for a full frame.
func TestEncodeSmallAllocs(t *testing.T) {
	rel := batchSampleRel(1)
	cb := BatchFromRelation(rel)
	for name, encode := range map[string]func() error{
		"relation": func() error { return rel.WriteBinary(io.Discard) },
		"batch":    func() error { return cb.WriteBinary(io.Discard) },
	} {
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := encode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 4<<10 {
			t.Errorf("%s: one-row encode allocates %d B, want < 4 KiB", name, perCall)
		}
	}
}

func TestReadBinaryColumnarParallel(t *testing.T) {
	rel := batchSampleRel(20000)
	var buf bytes.Buffer
	if err := rel.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cb, err := ReadBinaryColumnar(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	relationsEqual(t, rel, cb.ToRelation())
}

func TestReadBinaryColumnarCorrupt(t *testing.T) {
	rel := batchSampleRel(300)
	var buf bytes.Buffer
	if err := rel.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations at every prefix must error, never panic or hang.
	for cut := 0; cut < len(full); cut += 97 {
		if _, err := ReadBinaryColumnar(bytes.NewReader(full[:cut]), 1); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A flipped value-kind byte must be rejected or decode to the same
	// cardinality — never crash.
	mut := append([]byte(nil), full...)
	mut[len(mut)/2] ^= 0x7f
	if cb, err := ReadBinaryColumnar(bytes.NewReader(mut), 1); err == nil && cb.NumRows != rel.Len() {
		t.Fatalf("corrupt stream decoded to %d rows", cb.NumRows)
	}
	// A magic-less former-v1 stream is corrupt input, whatever the
	// worker count.
	for _, workers := range []int{1, 4} {
		if _, err := ReadBinaryColumnar(bytes.NewReader(formerV1Stream()), workers); !errors.Is(err, errCorrupt) {
			t.Fatalf("workers=%d: former v1 stream: got %v, want errCorrupt", workers, err)
		}
	}
}

func TestBatchMixedColumnOnWire(t *testing.T) {
	rel := NewRelation(NewSchema(Col("x", TypeInt)))
	_ = rel.Append(Tuple{NewInt(1)})
	_ = rel.Append(Tuple{NewString("two")})
	_ = rel.Append(Tuple{Null})
	cb := BatchFromRelation(rel)
	var buf bytes.Buffer
	if err := cb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinaryColumnar(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	relationsEqual(t, rel, out.ToRelation())
}
