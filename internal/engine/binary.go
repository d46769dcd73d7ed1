package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/fault"
)

// Binary wire format v2 used by the direct CAST path. Layout:
//
//	u32 magic "BDW2" (0x32574442 little-endian)
//	u32 column count
//	per column: u8 type, u16 name length, name bytes
//	u64 total tuple count
//	repeated batch frames:
//	  u32 tuple count (0 terminates the stream)
//	  u32 payload byte length
//	  payload: per tuple, per value: u8 kind, then
//	    varint int / 8-byte LE float / uvarint-prefixed string / 1-byte bool
//
// The batch counts must sum to the declared total, which the decoder
// uses only as a (capped) preallocation hint until the end marker
// confirms it.
//
// The format is self-describing so the receiving engine can validate the
// schema without a side channel, mirroring the paper's "access method
// that knows how to read binary data in parallel directly from another
// engine". Framing the tuples into bounded batches is what makes the
// format streamable (encoder and decoder run concurrently over a pipe)
// and parallel-decodable (each payload is independent once the schema is
// known). A stream that does not open with the magic word is corrupt
// input.

// Wire-codec failpoints, evaluated once per batch frame (not per value,
// so the disabled-path cost is one atomic load per ~64KiB). Chaos tests
// arm them to fail or stall a stream at exact frame boundaries.
const (
	// FpEncodeFrame fires before each frame (and the end-of-stream
	// marker) is written — row and columnar encoders both.
	FpEncodeFrame = "wire.encode.frame"
	// FpDecodeFrame fires before each frame header is read.
	FpDecodeFrame = "wire.decode.frame"
)

var errCorrupt = errors.New("engine: corrupt binary relation")

// corruptf wraps errCorrupt with positional context so a failed CAST
// names what was malformed instead of returning partial garbage.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

const (
	binaryMagic = 0x32574442 // "BDW2" little-endian

	// Encoder batching: flush a frame when either bound is hit.
	batchTargetBytes = 64 << 10
	batchMaxTuples   = 4096

	// Uniform bounds enforced on decode (and on encode, so honest
	// writers can never produce a stream the reader rejects).
	maxColumns    = 1 << 16
	maxNameLen    = 1 << 12
	maxStringLen  = 1 << 28
	maxBatchBytes = 1 << 26

	// maxRowBytes bounds one encoded tuple. Frames hold whole tuples, so
	// a frame can overshoot batchTargetBytes by at most one row; keeping
	// rows under this cap keeps every honest frame under maxBatchBytes,
	// preserving the invariant that encode-side checks guarantee the
	// reader accepts the stream. It also makes maxRowBytes the effective
	// encode limit for a single string value (checked against
	// maxEncodeStringLen so the error names the string, not the row);
	// maxStringLen is the looser bound the decoder enforces.
	maxRowBytes        = 1 << 25
	maxEncodeStringLen = maxRowBytes - 64

	// maxZeroColTuples caps the decoded cardinality of zero-column
	// relations, whose tuples consume no payload bytes: without it a few
	// bytes of hostile input could demand unbounded tuple allocations.
	maxZeroColTuples = 1 << 20
)

// ---------- encoding ----------

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// writeWireHeader emits the v2 stream header — magic word, column
// count, per-column descriptors, declared tuple count — enforcing the
// encode-side bounds. Shared by the row and columnar encoders so the
// header layout cannot drift between them.
func writeWireHeader(w io.Writer, schema Schema, ntuples int) error {
	ncols := len(schema.Columns)
	if ncols > maxColumns {
		return fmt.Errorf("engine: %d columns exceeds wire limit %d", ncols, maxColumns)
	}
	if ncols == 0 && ntuples > maxZeroColTuples {
		return fmt.Errorf("engine: zero-column relation of %d tuples exceeds wire limit %d", ntuples, maxZeroColTuples)
	}
	head := make([]byte, 0, 64)
	head = appendU32(head, binaryMagic)
	head = appendU32(head, uint32(ncols))
	for _, c := range schema.Columns {
		if len(c.Name) > maxNameLen {
			return fmt.Errorf("engine: column name of %d bytes exceeds wire limit %d", len(c.Name), maxNameLen)
		}
		head = append(head, byte(c.Type))
		head = appendU16(head, uint16(len(c.Name)))
		head = append(head, c.Name...)
	}
	head = appendU64(head, uint64(ntuples))
	_, err := w.Write(head)
	return err
}

// framePayloadCap sizes an encoder's reused frame buffer: a full frame
// (plus one row of overshoot) for a stream that fills frames, else an
// estimate of ~10 bytes per value, which append grows if strings run
// long. Frames flush on batchTargetBytes/batchMaxTuples either way, so
// the bytes on the wire do not depend on it — a one-row answer just
// stops paying for a 68 KiB buffer.
func framePayloadCap(rows, cols int) int {
	return min(batchTargetBytes+4096, rows*(cols*10+1)+16)
}

// WriteBinary serialises the relation to w in the direct-CAST v2 format:
// the header (schema plus declared tuple count), then tuple batches
// flushed in ~64KiB frames from a reused scratch buffer, then the
// end-of-stream marker.
func (r *Relation) WriteBinary(w io.Writer) error {
	if err := writeWireHeader(w, r.Schema, len(r.Tuples)); err != nil {
		return err
	}

	payload := make([]byte, 0, framePayloadCap(len(r.Tuples), len(r.Schema.Columns)))
	var hdr [8]byte
	flush := func(count int) error {
		if err := fault.Hit(FpEncodeFrame); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(count))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		payload = payload[:0]
		return nil
	}

	// The hot loop appends every value to the reused in-memory payload
	// slice (inlined per-kind encoding): zero per-value writer calls and
	// zero per-value heap allocations.
	count := 0
	for _, t := range r.Tuples {
		rowStart := len(payload)
		for i := range t {
			v := &t[i]
			payload = append(payload, byte(v.Kind))
			switch v.Kind {
			case TypeNull:
			case TypeInt:
				payload = binary.AppendVarint(payload, v.I)
			case TypeFloat:
				payload = appendU64(payload, math.Float64bits(v.F))
			case TypeString:
				if len(v.S) > maxEncodeStringLen {
					return fmt.Errorf("engine: string value of %d bytes exceeds wire limit %d", len(v.S), maxEncodeStringLen)
				}
				payload = binary.AppendUvarint(payload, uint64(len(v.S)))
				payload = append(payload, v.S...)
			case TypeBool:
				if v.B {
					payload = append(payload, 1)
				} else {
					payload = append(payload, 0)
				}
			default:
				return fmt.Errorf("engine: cannot serialise kind %v", v.Kind)
			}
		}
		if len(payload)-rowStart > maxRowBytes {
			return fmt.Errorf("engine: tuple of %d encoded bytes exceeds wire row limit %d", len(payload)-rowStart, maxRowBytes)
		}
		count++
		if count >= batchMaxTuples || len(payload) >= batchTargetBytes {
			if err := flush(count); err != nil {
				return err
			}
			count = 0
		}
	}
	if count > 0 {
		if err := flush(count); err != nil {
			return err
		}
	}
	if err := fault.Hit(FpEncodeFrame); err != nil {
		return err
	}
	var tail [4]byte // u32 0: end-of-stream marker
	_, err := w.Write(tail[:])
	return err
}

// ---------- decoding ----------

// decodeBatch decodes count tuples from one batch payload. Tuples are
// arena-allocated: one []Value block per batch instead of a make(Tuple,
// ncols) per row, so a million-row decode performs thousands — not
// millions — of tuple allocations.
func decodeBatch(schema Schema, payload []byte, count int) ([]Tuple, error) {
	ncols := len(schema.Columns)
	tuples := make([]Tuple, count)
	arena := make([]Value, count*ncols)
	// All string values in the batch are carved as substrings of one
	// payload-sized string, built lazily on the first string value: one
	// allocation per batch instead of one per value.
	payloadStr := ""
	off := 0
	for i := 0; i < count; i++ {
		t := Tuple(arena[i*ncols : (i+1)*ncols : (i+1)*ncols])
		for j := 0; j < ncols; j++ {
			if off >= len(payload) {
				return nil, corruptf("batch truncated at tuple %d column %d", i, j)
			}
			kind := Type(payload[off])
			off++
			switch kind {
			case TypeNull:
				t[j] = Null
			case TypeInt:
				// Manual zig-zag varint decode: binary.Varint is not
				// inlinable (it loops), and this is the hottest kind.
				var ux uint64
				var shift uint
				done := false
				for off < len(payload) {
					b := payload[off]
					off++
					if b < 0x80 {
						if shift == 63 && b > 1 {
							return nil, corruptf("varint overflow at tuple %d column %d", i, j)
						}
						ux |= uint64(b) << shift
						done = true
						break
					}
					ux |= uint64(b&0x7f) << shift
					shift += 7
					if shift >= 64 {
						return nil, corruptf("varint overflow at tuple %d column %d", i, j)
					}
				}
				if !done {
					return nil, corruptf("truncated varint at tuple %d column %d", i, j)
				}
				iv := int64(ux >> 1)
				if ux&1 != 0 {
					iv = ^iv
				}
				t[j] = NewInt(iv)
			case TypeFloat:
				if off+8 > len(payload) {
					return nil, corruptf("truncated float at tuple %d column %d", i, j)
				}
				t[j] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(payload[off:])))
				off += 8
			case TypeString:
				if off >= len(payload) {
					return nil, corruptf("truncated string length at tuple %d column %d", i, j)
				}
				// Fast path: lengths < 128 are a single uvarint byte.
				var n uint64
				if b := payload[off]; b < 0x80 {
					n = uint64(b)
					off++
				} else {
					var w int
					n, w = binary.Uvarint(payload[off:])
					if w <= 0 {
						return nil, corruptf("bad string length at tuple %d column %d", i, j)
					}
					off += w
				}
				if n > maxStringLen {
					return nil, corruptf("string length %d exceeds limit %d at tuple %d column %d", n, maxStringLen, i, j)
				}
				if off+int(n) > len(payload) {
					return nil, corruptf("truncated string body at tuple %d column %d", i, j)
				}
				if n == 0 {
					t[j] = NewString("")
				} else {
					if payloadStr == "" {
						payloadStr = string(payload)
					}
					t[j] = NewString(payloadStr[off : off+int(n)])
				}
				off += int(n)
			case TypeBool:
				if off >= len(payload) {
					return nil, corruptf("truncated bool at tuple %d column %d", i, j)
				}
				t[j] = NewBool(payload[off] != 0)
				off++
			default:
				return nil, corruptf("unknown value kind %d at tuple %d column %d", kind, i, j)
			}
		}
		tuples[i] = t
	}
	if off != len(payload) {
		return nil, corruptf("batch has %d trailing bytes", len(payload)-off)
	}
	return tuples, nil
}

// readSchema decodes the per-column header, with uniform bounds on
// column count and name length.
func readSchema(r io.Reader, ncols uint32) (Schema, error) {
	if ncols > maxColumns {
		return Schema{}, corruptf("column count %d exceeds limit %d", ncols, maxColumns)
	}
	var scratch [3]byte
	schema := Schema{Columns: make([]Column, ncols)}
	for i := range schema.Columns {
		if _, err := io.ReadFull(r, scratch[:3]); err != nil {
			return Schema{}, corruptf("truncated header for column %d: %v", i, err)
		}
		nameLen := binary.LittleEndian.Uint16(scratch[1:3])
		if int(nameLen) > maxNameLen {
			return Schema{}, corruptf("column %d name length %d exceeds limit %d", i, nameLen, maxNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return Schema{}, corruptf("truncated name for column %d: %v", i, err)
		}
		schema.Columns[i] = Column{Name: string(name), Type: Type(scratch[0])}
	}
	return schema, nil
}

// readFrameHeader reads one batch frame header, validating bounds
// against the schema arity. count == 0 signals end of stream.
func readFrameHeader(r io.Reader, ncols int) (count, payloadLen int, err error) {
	if err := fault.Hit(FpDecodeFrame); err != nil {
		return 0, 0, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, corruptf("truncated batch header: %v", err)
	}
	c := binary.LittleEndian.Uint32(hdr[:4])
	if c == 0 {
		return 0, 0, nil
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, 0, corruptf("truncated batch header: %v", err)
	}
	pl := binary.LittleEndian.Uint32(hdr[4:])
	if c > batchMaxTuples {
		return 0, 0, corruptf("batch tuple count %d exceeds limit %d", c, batchMaxTuples)
	}
	if pl > maxBatchBytes {
		return 0, 0, corruptf("batch payload %d bytes exceeds limit %d", pl, maxBatchBytes)
	}
	// Every value costs at least its kind byte, so a frame shorter than
	// count*ncols bytes cannot be honest.
	if int(pl) < int(c)*ncols {
		return 0, 0, corruptf("batch payload %d bytes too short for %d tuples × %d columns", pl, c, ncols)
	}
	return int(c), int(pl), nil
}

// preallocTupleCap caps how many tuple headers the decoder preallocates
// from the wire's declared count: the declaration is a hint, not a
// promise, so a lying header can never force a huge upfront allocation.
func preallocTupleCap(declared uint64) int {
	if declared > 1<<16 {
		return 1 << 16
	}
	return int(declared)
}

// readWireHeader consumes the stream header — magic word, schema,
// declared tuple count. Anything that does not open with the magic is
// corrupt input. Shared by the row and columnar decoders.
func readWireHeader(r io.Reader) (Schema, uint64, error) {
	var word [8]byte
	if _, err := io.ReadFull(r, word[:4]); err != nil {
		return Schema{}, 0, corruptf("truncated stream: %v", err)
	}
	if magic := binary.LittleEndian.Uint32(word[:4]); magic != binaryMagic {
		return Schema{}, 0, corruptf("bad magic %#x", magic)
	}
	if _, err := io.ReadFull(r, word[:4]); err != nil {
		return Schema{}, 0, corruptf("truncated column count: %v", err)
	}
	schema, err := readSchema(r, binary.LittleEndian.Uint32(word[:4]))
	if err != nil {
		return Schema{}, 0, err
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return Schema{}, 0, corruptf("truncated tuple count: %v", err)
	}
	return schema, binary.LittleEndian.Uint64(word[:]), nil
}

// ReadBinary deserialises a relation written by WriteBinary. It is the
// decoder of the server's response frames (server.ReadResponse); the
// CAST pipe decodes columnar, through ReadBinaryColumnar.
func ReadBinary(r io.Reader) (*Relation, error) {
	schema, declared, err := readWireHeader(r)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	rel.Tuples = make([]Tuple, 0, preallocTupleCap(declared))
	ncols := len(schema.Columns)
	var payload []byte
	var total uint64
	for {
		count, payloadLen, err := readFrameHeader(r, ncols)
		if err != nil {
			return nil, err
		}
		if count == 0 {
			break
		}
		if cap(payload) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, corruptf("truncated batch payload: %v", err)
		}
		tuples, err := decodeBatch(schema, payload, count)
		if err != nil {
			return nil, err
		}
		rel.Tuples = append(rel.Tuples, tuples...)
		total += uint64(count)
		if total > declared {
			return nil, corruptf("stream carries more than the declared %d tuples", declared)
		}
		// Zero-column tuples consume no payload bytes, so the running
		// count is the only bound on what the stream can demand.
		if ncols == 0 && total > maxZeroColTuples {
			return nil, corruptf("zero-column relation claims %d tuples", total)
		}
	}
	if total != declared {
		return nil, corruptf("header declares %d tuples, stream carried %d", declared, total)
	}
	return rel, nil
}
