package server

// Unit and fuzz coverage for the request/response wire protocol. The
// fuzzers are the satellite the CI fuzz job runs: arbitrary bytes fed
// to the decoders must produce either a clean decode or a typed
// protocol error — never a panic, and never an allocation driven by an
// unvalidated wire length.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func wireRelation(t testing.TB) *engine.Relation {
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("c0", engine.TypeInt),
		engine.Col("v", engine.TypeString)))
	for i := 0; i < 10; i++ {
		if err := rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewString("x")}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return rel
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpQuery, Text: "RELATIONAL(SELECT * FROM CAST(o0, relation))"},
		{Op: OpQuery, Deadline: 1500 * time.Millisecond, Text: "ARRAY(scan(CAST(o1, array)))"},
		{Op: OpExplain, Text: "TEXT(count(CAST(o2, text)))"},
		{Op: OpCast, Object: "o0", Engine: "accumulo"},
		{Op: OpCast, Object: strings.Repeat("n", maxCastArgBytes), Engine: ""},
		{Op: OpMetrics},
		{Op: OpPing, Deadline: 24 * time.Hour},
		{Op: OpQuery, Text: strings.Repeat("q", MaxRequestBytes)},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("write %+v: %v", req.Op, err)
		}
		got, err := ReadRequest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read op %d: %v", req.Op, err)
		}
		want := req
		// Deadlines travel as capped milliseconds.
		millis := want.Deadline.Milliseconds()
		if millis > maxDeadlineMillis {
			millis = maxDeadlineMillis
		}
		want.Deadline = time.Duration(millis) * time.Millisecond
		// Cast requests drop any Text; query requests drop cast args.
		if got != want {
			t.Fatalf("round trip mismatch: sent %+v got %+v", want, got)
		}
	}
}

func TestReadRequestRejectsCorruptFrames(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, Request{Op: OpQuery, Text: "TEXT(count(CAST(o0, text)))"}); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", append([]byte{0xde, 0xad, 0xbe, 0xef}, valid()[4:]...)},
		{"unknown opcode", func() []byte { b := valid(); b[4] = 99; return b }()},
		{"oversized deadline", func() []byte {
			b := valid()
			binary.LittleEndian.PutUint32(b[5:9], maxDeadlineMillis+1)
			return b
		}()},
		{"oversized payload length", func() []byte {
			b := valid()[:13]
			binary.LittleEndian.PutUint32(b[9:13], MaxRequestBytes+1)
			return b
		}()},
		{"truncated header", valid()[:7]},
		{"truncated payload", valid()[:20]},
		{"cast arg overruns payload", func() []byte {
			var buf bytes.Buffer
			payload := binary.LittleEndian.AppendUint16(nil, 500) // claims 500, has 1
			payload = append(payload, 'x')
			buf.Write(binary.LittleEndian.AppendUint32(nil, reqMagic))
			buf.WriteByte(OpCast)
			buf.Write(binary.LittleEndian.AppendUint32(nil, 0))
			buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
			buf.Write(payload)
			return buf.Bytes()
		}()},
		{"cast trailing bytes", func() []byte {
			var buf bytes.Buffer
			payload := binary.LittleEndian.AppendUint16(nil, 1)
			payload = append(payload, 'a')
			payload = binary.LittleEndian.AppendUint16(payload, 1)
			payload = append(payload, 'b', 'z', 'z')
			buf.Write(binary.LittleEndian.AppendUint32(nil, reqMagic))
			buf.WriteByte(OpCast)
			buf.Write(binary.LittleEndian.AppendUint32(nil, 0))
			buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
			buf.Write(payload)
			return buf.Bytes()
		}()},
		{"ping with payload", func() []byte {
			var buf bytes.Buffer
			buf.Write(binary.LittleEndian.AppendUint32(nil, reqMagic))
			buf.WriteByte(OpPing)
			buf.Write(binary.LittleEndian.AppendUint32(nil, 0))
			buf.Write(binary.LittleEndian.AppendUint32(nil, 3))
			buf.WriteString("???")
			return buf.Bytes()
		}()},
	}
	for _, tc := range cases {
		_, err := ReadRequest(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: decode succeeded, want protocol error", tc.name)
		}
		if !IsProtocolError(err) {
			t.Fatalf("%s: error %v is not a protocol error", tc.name, err)
		}
	}
	// Clean close before any byte is io.EOF, not a protocol error.
	if _, err := ReadRequest(bytes.NewReader(nil)); !errors.Is(err, io.EOF) || IsProtocolError(err) {
		t.Fatalf("empty stream: got %v, want bare io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rel := wireRelation(t)

	var buf bytes.Buffer
	if err := WriteRelation(&buf, rel); err != nil {
		t.Fatalf("write relation: %v", err)
	}
	resp, err := ReadResponse(&buf)
	if err != nil || resp.Status != StatusRelation || resp.Rel == nil || resp.Rel.Len() != rel.Len() {
		t.Fatalf("relation round trip: resp %+v err %v", resp, err)
	}

	buf.Reset()
	if err := WriteText(&buf, "metrics snapshot"); err != nil {
		t.Fatalf("write text: %v", err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil || resp.Status != StatusText || resp.Text != "metrics snapshot" {
		t.Fatalf("text round trip: resp %+v err %v", resp, err)
	}

	buf.Reset()
	if err := WriteError(&buf, CodeOverloaded, "busy"); err != nil {
		t.Fatalf("write error: %v", err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil || resp.Status != StatusError || resp.Code != CodeOverloaded || resp.Text != "busy" {
		t.Fatalf("error round trip: resp %+v err %v", resp, err)
	}

	buf.Reset()
	if err := WriteExplain(&buf, "query 1ms\n  parse 0.1ms", rel); err != nil {
		t.Fatalf("write explain: %v", err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil || resp.Status != StatusExplain || !strings.Contains(resp.Text, "parse") ||
		resp.Rel == nil || resp.Rel.Len() != rel.Len() {
		t.Fatalf("explain round trip: resp %+v err %v", resp, err)
	}
}

func TestWriteErrorTruncatesOversizedMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteError(&buf, CodeInternal, strings.Repeat("e", maxErrBytes+500)); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := ReadResponse(&buf)
	if err != nil || resp.Status != StatusError || len(resp.Text) != maxErrBytes {
		t.Fatalf("truncated error round trip: len %d err %v", len(resp.Text), err)
	}
}

func TestReadResponseRejectsOversizedText(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(StatusText)
	buf.Write(binary.LittleEndian.AppendUint32(nil, maxTextBytes+1))
	if _, err := ReadResponse(&buf); err == nil || !IsProtocolError(err) {
		t.Fatalf("oversized text accepted: %v", err)
	}
	buf.Reset()
	buf.WriteByte(StatusError)
	buf.WriteByte(CodeInternal)
	buf.Write(binary.LittleEndian.AppendUint32(nil, maxErrBytes+1))
	if _, err := ReadResponse(&buf); err == nil || !IsProtocolError(err) {
		t.Fatalf("oversized error message accepted: %v", err)
	}
}

// TestReadResponseRejectsMagiclessRelation feeds the response decoder a
// well-formed relation in the seed's magic-less v1 layout, which the
// engine codec once accepted off the network: it is a protocol error
// now, in a relation frame and behind an explain report alike.
func TestReadResponseRejectsMagiclessRelation(t *testing.T) {
	v1 := binary.LittleEndian.AppendUint32(nil, 1)   // ncols
	v1 = append(v1, byte(engine.TypeInt), 1, 0, 'x') // type, name len, name
	v1 = binary.LittleEndian.AppendUint64(v1, 1)     // ntup
	v1 = append(v1, byte(engine.TypeInt), 2)         // one tuple: varint 1
	explain := append([]byte{StatusExplain}, binary.LittleEndian.AppendUint32(nil, 2)...)
	explain = append(explain, 'o', 'k')
	for name, frame := range map[string][]byte{
		"relation": append([]byte{StatusRelation}, v1...),
		"explain":  append(explain, v1...),
	} {
		if resp, err := ReadResponse(bytes.NewReader(frame)); err == nil || !IsProtocolError(err) {
			t.Errorf("%s frame: magic-less relation accepted: %+v, %v", name, resp, err)
		}
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request decoder. Every
// outcome must be a clean decode (which must then re-encode and decode
// to the same request) or a typed protocol error; panics and
// wire-chosen allocations are the bugs this hunts.
func FuzzReadRequest(f *testing.F) {
	for _, req := range []Request{
		{Op: OpQuery, Text: "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(o0, relation))"},
		{Op: OpCast, Object: "o1", Engine: "scidb", Deadline: time.Second},
		{Op: OpMetrics},
		{Op: OpPing},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			f.Fatalf("seed: %v", err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x44, 0x57, 0x51, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, io.EOF) && !IsProtocolError(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteRequest(&out, req); err != nil {
			t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
		}
		again, err := ReadRequest(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if again != req {
			t.Fatalf("unstable round trip: %+v vs %+v", req, again)
		}
	})
}

// FuzzReadResponse does the same for the client-side response decoder,
// which also fronts the engine's BDW2 relation codec.
func FuzzReadResponse(f *testing.F) {
	rel := wireRelation(f)
	var buf bytes.Buffer
	if err := WriteRelation(&buf, rel); err != nil {
		f.Fatalf("seed: %v", err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteText(&buf, "pong")
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteError(&buf, CodeDeadline, "deadline exceeded")
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteExplain(&buf, "query 1ms", rel)
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:4])
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bytes.NewReader(data))
		if err != nil {
			if !IsProtocolError(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		switch resp.Status {
		case StatusText:
			var out bytes.Buffer
			if err := WriteText(&out, resp.Text); err != nil {
				t.Fatalf("decoded text does not re-encode: %v", err)
			}
		case StatusError:
			var out bytes.Buffer
			if err := WriteError(&out, resp.Code, resp.Text); err != nil {
				t.Fatalf("decoded error does not re-encode: %v", err)
			}
		}
	})
}
