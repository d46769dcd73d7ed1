package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip encodes r with the v2 codec and decodes it back, failing the
// test on any error.
func roundTrip(t *testing.T, r *Relation) *Relation {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return got
}

func assertRelationsEqual(t *testing.T, got, want *Relation) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		t.Fatalf("row count %d != %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if len(got.Tuples[i]) != len(want.Tuples[i]) {
			t.Fatalf("tuple %d arity %d != %d", i, len(got.Tuples[i]), len(want.Tuples[i]))
		}
		for j := range want.Tuples[i] {
			if !reflect.DeepEqual(got.Tuples[i][j], want.Tuples[i][j]) {
				t.Fatalf("tuple %d col %d: %#v != %#v", i, j, got.Tuples[i][j], want.Tuples[i][j])
			}
		}
	}
}

func TestBinaryV2RoundTripEdgeCases(t *testing.T) {
	bigString := strings.Repeat("x", (64<<10)+17) // crosses the 64KiB batch flush target

	cases := map[string]func() *Relation{
		"nulls and bools": func() *Relation {
			r := NewRelation(NewSchema(Col("b", TypeBool), Col("n", TypeString)))
			_ = r.Append(Tuple{NewBool(true), Null})
			_ = r.Append(Tuple{Null, NewString("")})
			_ = r.Append(Tuple{NewBool(false), NewString("x")})
			return r
		},
		"empty strings": func() *Relation {
			r := NewRelation(NewSchema(Col("s", TypeString)))
			for i := 0; i < 10; i++ {
				_ = r.Append(Tuple{NewString("")})
			}
			return r
		},
		"string larger than one batch": func() *Relation {
			r := NewRelation(NewSchema(Col("s", TypeString)))
			_ = r.Append(Tuple{NewString(bigString)})
			_ = r.Append(Tuple{NewString("after")})
			return r
		},
		"zero rows": func() *Relation {
			return NewRelation(NewSchema(Col("a", TypeInt), Col("b", TypeFloat)))
		},
		"zero columns": func() *Relation {
			r := NewRelation(Schema{})
			_ = r.Append(Tuple{})
			_ = r.Append(Tuple{})
			return r
		},
		"zero rows zero columns": func() *Relation {
			return NewRelation(Schema{})
		},
		"float specials": func() *Relation {
			r := NewRelation(NewSchema(Col("f", TypeFloat)))
			for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
				_ = r.Append(Tuple{NewFloat(f)})
			}
			return r
		},
		"int extremes": func() *Relation {
			r := NewRelation(NewSchema(Col("i", TypeInt)))
			for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
				_ = r.Append(Tuple{NewInt(i)})
			}
			return r
		},
		"multi batch": func() *Relation {
			r := NewRelation(NewSchema(Col("i", TypeInt), Col("s", TypeString)))
			for i := 0; i < 3*batchMaxTuples+11; i++ {
				_ = r.Append(Tuple{NewInt(int64(i)), NewString("v")})
			}
			return r
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			want := mk()
			assertRelationsEqual(t, roundTrip(t, want), want)
		})
	}
}

// NaN needs a bit-level check: reflect.DeepEqual(NaN, NaN) is false.
func TestBinaryV2RoundTripNaN(t *testing.T) {
	r := NewRelation(NewSchema(Col("f", TypeFloat)))
	_ = r.Append(Tuple{NewFloat(math.NaN())})
	got := roundTrip(t, r)
	if !math.IsNaN(got.Tuples[0][0].F) {
		t.Fatalf("NaN did not survive: %v", got.Tuples[0][0])
	}
}

func TestBinaryV2RoundTripProperty(t *testing.T) {
	// Property: arbitrary mixed-type tuples survive the framed wire
	// format, including batch-boundary crossings.
	f := func(ints []int64, labels []string, bs []bool) bool {
		r := NewRelation(NewSchema(
			Col("i", TypeInt), Col("f", TypeFloat), Col("s", TypeString), Col("b", TypeBool)))
		for k, i := range ints {
			s := ""
			if len(labels) > 0 {
				s = labels[k%len(labels)]
			}
			b := Value(Null)
			if len(bs) > 0 {
				b = NewBool(bs[k%len(bs)])
			}
			_ = r.Append(Tuple{NewInt(i), NewFloat(float64(i) / 7), NewString(s), b})
		}
		var buf bytes.Buffer
		if err := r.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.Len() != r.Len() || !got.Schema.Equal(r.Schema) {
			return false
		}
		for i := range r.Tuples {
			if !reflect.DeepEqual(got.Tuples[i], r.Tuples[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBinaryOversizedRowRefusedOnEncode(t *testing.T) {
	// Values or rows bigger than the frame limit must fail at encode time
	// with a clear error — never produce a stream the reader rejects.
	t.Run("single giant string", func(t *testing.T) {
		r := NewRelation(NewSchema(Col("s", TypeString)))
		_ = r.Append(Tuple{NewString(strings.Repeat("x", maxEncodeStringLen+100))})
		var buf bytes.Buffer
		err := r.WriteBinary(&buf)
		if err == nil || !strings.Contains(err.Error(), "wire limit") {
			t.Fatalf("want string wire-limit error, got %v", err)
		}
	})
	t.Run("row of strings over the row cap", func(t *testing.T) {
		r := NewRelation(NewSchema(Col("a", TypeString), Col("b", TypeString)))
		half := strings.Repeat("x", maxRowBytes/2+64)
		_ = r.Append(Tuple{NewString(half), NewString(half)})
		var buf bytes.Buffer
		err := r.WriteBinary(&buf)
		if err == nil || !strings.Contains(err.Error(), "row limit") {
			t.Fatalf("want row-limit error, got %v", err)
		}
	})
}

func TestBinaryV2TruncationsError(t *testing.T) {
	r := NewRelation(NewSchema(Col("i", TypeInt), Col("s", TypeString)))
	for i := 0; i < 100; i++ {
		_ = r.Append(Tuple{NewInt(int64(i)), NewString("hello")})
	}
	var buf bytes.Buffer
	if err := r.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail cleanly — never panic, never return
	// a silently short relation.
	for n := 0; n < len(full); n += 7 {
		if _, err := ReadBinary(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		} else if !errors.Is(err, errCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap errCorrupt", n, err)
		}
	}
}

// formerV1Stream is a well-formed stream in the seed's unframed v1
// layout (no magic: u32 column count, columns, u64 tuple count, values
// in one run) — input every decoder used to accept and now must reject.
func formerV1Stream() []byte {
	var b []byte
	b = appendU32(b, 1)             // ncols
	b = append(b, byte(TypeInt))    // col type
	b = appendU16(b, 1)             // name len
	b = append(b, 'x')              // name
	b = appendU64(b, 1)             // ntup
	b = append(b, byte(TypeInt), 2) // one tuple: varint 1
	return b
}

func TestBinaryCorruptStreamsError(t *testing.T) {
	valid := func() []byte {
		r := sampleRelation()
		var buf bytes.Buffer
		if err := r.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
			t.Error("empty input should fail")
		}
	})
	t.Run("short non-magic junk", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
			t.Error("short non-magic input should fail")
		}
	})
	t.Run("non-magic first word", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f})); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("former v1 stream", func(t *testing.T) {
		// A complete magic-less v1 relation is corrupt input now, not a
		// one-row relation.
		if rel, err := ReadBinary(bytes.NewReader(formerV1Stream())); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v (rel %v), want errCorrupt", err, rel)
		}
	})
	t.Run("batch count over limit", func(t *testing.T) {
		b := valid()
		// Frame header sits right after the fixed header + 4 columns.
		// Corrupt the first batch's tuple count to an absurd value.
		off := frameHeaderOffset(t, b)
		binary_putU32(b[off:], batchMaxTuples+1)
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("payload shorter than arity floor", func(t *testing.T) {
		b := valid()
		off := frameHeaderOffset(t, b)
		binary_putU32(b[off+4:], 1) // payload length < count*ncols
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("unknown value kind", func(t *testing.T) {
		b := valid()
		off := frameHeaderOffset(t, b)
		b[off+8] = 0xee // first value's kind byte
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("declared count mismatch", func(t *testing.T) {
		b := valid()
		// The u64 declared total sits just before the first frame.
		binary_putU64(b[frameHeaderOffset(t, b)-8:], 999)
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("payload ends after string kind byte", func(t *testing.T) {
		// Hand-built v2 stream whose only value is a string kind byte
		// with no length following it — must error, not panic.
		var b []byte
		b = appendU32(b, binaryMagic)
		b = appendU32(b, 1)             // ncols
		b = append(b, byte(TypeString)) // col type
		b = appendU16(b, 1)             // name len
		b = append(b, 's')              // name
		b = appendU64(b, 1)             // declared tuple count
		b = appendU32(b, 1)             // frame: 1 tuple
		b = appendU32(b, 1)             // frame: 1 payload byte
		b = append(b, byte(TypeString)) // kind byte, then nothing
		b = appendU32(b, 0)             // end marker
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("zero-column amplification", func(t *testing.T) {
		// A tiny v2 stream with a zero-column schema streaming endless
		// "4096 tuples, 0 payload bytes" frames: 8 wire bytes per 4096
		// tuples must hit the zero-column cap, not allocate unbounded.
		var b []byte
		b = appendU32(b, binaryMagic)
		b = appendU32(b, 0)     // ncols
		b = appendU64(b, 1<<40) // declared tuple count (a lie)
		for i := 0; i < 1<<20/batchMaxTuples+2; i++ {
			b = appendU32(b, batchMaxTuples)
			b = appendU32(b, 0)
		}
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("sequential: got %v, want errCorrupt", err)
		}
		if _, err := ReadBinaryColumnar(bytes.NewReader(b), 4); !errors.Is(err, errCorrupt) {
			t.Errorf("parallel: got %v, want errCorrupt", err)
		}
	})
	t.Run("stream exceeds declared count", func(t *testing.T) {
		b := valid()
		// Shrink the declared total below the real row count: the decoder
		// must notice as soon as the stream overshoots it.
		binary_putU64(b[frameHeaderOffset(t, b)-8:], 1)
		if _, err := ReadBinary(bytes.NewReader(b)); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
	t.Run("truncated at frame boundaries", func(t *testing.T) {
		// A stream cut off exactly at a frame header, inside one, or
		// right after one (the shapes a partial write produces) must
		// yield a clean error from both decoders — never a panic, never
		// a silently short relation.
		full := valid()
		hdr := frameHeaderOffset(t, full)
		for _, cut := range []int{hdr, hdr + 4, hdr + 8, len(full) - 4, len(full) - 1} {
			b := full[:cut]
			if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
				t.Errorf("cut at %d: sequential decode accepted truncated stream", cut)
			}
			if _, err := ReadBinaryColumnar(bytes.NewReader(b), 4); err == nil {
				t.Errorf("cut at %d: parallel decode accepted truncated stream", cut)
			}
		}
	})
	t.Run("parallel sees corruption too", func(t *testing.T) {
		b := valid()
		off := frameHeaderOffset(t, b)
		b[off+8] = 0xee
		if _, err := ReadBinaryColumnar(bytes.NewReader(b), 4); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v, want errCorrupt", err)
		}
	})
}

// frameHeaderOffset computes where the first batch frame starts in a v2
// stream produced from sampleRelation (magic + ncols + per-column
// headers + u64 declared tuple count).
func frameHeaderOffset(t testing.TB, b []byte) int {
	t.Helper()
	off := 8 // magic + column count
	ncols := int(uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24)
	for i := 0; i < ncols; i++ {
		nameLen := int(uint16(b[off+1]) | uint16(b[off+2])<<8)
		off += 3 + nameLen
	}
	off += 8 // declared tuple count
	if off >= len(b) {
		t.Fatalf("frame offset %d beyond stream length %d", off, len(b))
	}
	return off
}

func binary_putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func binary_putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// FuzzReadBinary asserts the decoder never panics and never hangs on
// arbitrary input.
func FuzzReadBinary(f *testing.F) {
	var v2 bytes.Buffer
	if err := sampleRelation().WriteBinary(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x44, 0x57, 0x32}) // bare magic
	// Partial-write shapes: streams cut exactly at the first frame
	// header, mid-header, and just past it (header without payload) —
	// what a writer that died between frame boundaries leaves behind.
	hdr := frameHeaderOffset(f, v2.Bytes())
	f.Add(v2.Bytes()[:hdr])
	f.Add(v2.Bytes()[:hdr+4])
	f.Add(v2.Bytes()[:hdr+8])
	f.Add(v2.Bytes()[:len(v2.Bytes())-4]) // missing end marker
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			// Whatever decoded must round-trip: re-encode and decode again.
			var buf bytes.Buffer
			if err := rel.WriteBinary(&buf); err != nil {
				t.Fatalf("re-encode of decoded relation failed: %v", err)
			}
			if _, err := ReadBinary(&buf); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
		}
	})
}
