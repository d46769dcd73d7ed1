package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/fault"
)

// Columnar codec for the v2 wire format: the same byte stream
// WriteBinary/ReadBinary produce and consume, but encoded straight from
// and decoded straight into ColumnBatch vectors. One wire frame maps to
// one decoded mini-batch, so the direct CAST path moves a relational
// table from column cache to array store without ever allocating per-row
// Tuples.

// WriteBinary serialises the batch in the v2 framed format. The stream
// is byte-identical in layout to Relation.WriteBinary: a reader cannot
// tell whether the sender was row- or column-organised.
func (cb *ColumnBatch) WriteBinary(w io.Writer) error {
	ncols := len(cb.Cols)
	if err := writeWireHeader(w, cb.Schema, cb.NumRows); err != nil {
		return err
	}

	payload := make([]byte, 0, framePayloadCap(cb.NumRows, ncols))
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

	count := 0
	for i := 0; i < cb.NumRows; i++ {
		rowStart := len(payload)
		for j := 0; j < ncols; j++ {
			c := &cb.Cols[j]
			if c.Kind == TypeNull {
				var err error
				payload, err = appendEncodedValue(payload, &c.Any[i])
				if err != nil {
					return err
				}
				continue
			}
			if c.Nulls.Get(i) {
				payload = append(payload, byte(TypeNull))
				continue
			}
			payload = append(payload, byte(c.Kind))
			switch c.Kind {
			case TypeInt:
				payload = binary.AppendVarint(payload, c.Ints[i])
			case TypeFloat:
				payload = appendU64(payload, math.Float64bits(c.Floats[i]))
			case TypeString:
				s := c.Strs[i]
				if len(s) > maxEncodeStringLen {
					return fmt.Errorf("engine: string value of %d bytes exceeds wire limit %d", len(s), maxEncodeStringLen)
				}
				payload = binary.AppendUvarint(payload, uint64(len(s)))
				payload = append(payload, s...)
			case TypeBool:
				if c.Bools[i] {
					payload = append(payload, 1)
				} else {
					payload = append(payload, 0)
				}
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
	var tail [4]byte
	_, err := w.Write(tail[:])
	return err
}

// appendEncodedValue appends one boxed value in wire encoding; used for
// generic columns, where the kind varies row to row.
func appendEncodedValue(payload []byte, v *Value) ([]byte, error) {
	payload = append(payload, byte(v.Kind))
	switch v.Kind {
	case TypeNull:
	case TypeInt:
		payload = binary.AppendVarint(payload, v.I)
	case TypeFloat:
		payload = appendU64(payload, math.Float64bits(v.F))
	case TypeString:
		if len(v.S) > maxEncodeStringLen {
			return nil, fmt.Errorf("engine: string value of %d bytes exceeds wire limit %d", len(v.S), maxEncodeStringLen)
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
		return nil, fmt.Errorf("engine: cannot serialise kind %v", v.Kind)
	}
	return payload, nil
}

// decodeFrameColumnar decodes one frame payload into a fresh mini-batch.
// Values whose wire kind matches the column's vector land typed; strays
// demote the column to the generic representation, exactly as
// AppendTuple would.
func decodeFrameColumnar(schema Schema, payload []byte, count int) (*ColumnBatch, error) {
	cb := NewColumnBatch(schema, count)
	ncols := len(schema.Columns)
	payloadStr := ""
	off := 0
	for i := 0; i < count; i++ {
		for j := 0; j < ncols; j++ {
			if off >= len(payload) {
				return nil, corruptf("batch truncated at tuple %d column %d", i, j)
			}
			kind := Type(payload[off])
			off++
			c := &cb.Cols[j]
			switch kind {
			case TypeNull:
				if c.Kind == TypeNull {
					c.Any = append(c.Any, Null)
				} else {
					c.Nulls.Set(i)
					c.appendZero()
				}
				continue
			case TypeInt:
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
				if c.Kind == TypeInt {
					c.Ints = append(c.Ints, iv)
				} else {
					c.appendVal(i, NewInt(iv))
				}
			case TypeFloat:
				if off+8 > len(payload) {
					return nil, corruptf("truncated float at tuple %d column %d", i, j)
				}
				fv := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
				off += 8
				if c.Kind == TypeFloat {
					c.Floats = append(c.Floats, fv)
				} else {
					c.appendVal(i, NewFloat(fv))
				}
			case TypeString:
				if off >= len(payload) {
					return nil, corruptf("truncated string length at tuple %d column %d", i, j)
				}
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
				var sv string
				if n > 0 {
					if payloadStr == "" {
						payloadStr = string(payload)
					}
					sv = payloadStr[off : off+int(n)]
				}
				off += int(n)
				if c.Kind == TypeString {
					c.Strs = append(c.Strs, sv)
				} else {
					c.appendVal(i, NewString(sv))
				}
			case TypeBool:
				if off >= len(payload) {
					return nil, corruptf("truncated bool at tuple %d column %d", i, j)
				}
				bv := payload[off] != 0
				off++
				if c.Kind == TypeBool {
					c.Bools = append(c.Bools, bv)
				} else {
					c.appendVal(i, NewBool(bv))
				}
			default:
				return nil, corruptf("unknown value kind %d at tuple %d column %d", kind, i, j)
			}
		}
		cb.NumRows++
	}
	if off != len(payload) {
		return nil, corruptf("batch has %d trailing bytes", len(payload)-off)
	}
	return cb, nil
}

// ReadBinaryColumnar deserialises a v2 stream into a ColumnBatch,
// fanning frame decoding out over workers goroutines when workers > 1.
func ReadBinaryColumnar(r io.Reader, workers int) (*ColumnBatch, error) {
	schema, declared, err := readWireHeader(r)
	if err != nil {
		return nil, err
	}
	if workers > 1 {
		return readColumnarParallel(r, schema, declared, workers)
	}
	return readColumnarSequential(r, schema, declared)
}

func readColumnarSequential(r io.Reader, schema Schema, declared uint64) (*ColumnBatch, error) {
	out := NewColumnBatch(schema, preallocTupleCap(declared))
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
		frame, err := decodeFrameColumnar(schema, payload, count)
		if err != nil {
			return nil, err
		}
		if err := out.AppendBatch(frame); err != nil {
			return nil, err
		}
		total += uint64(count)
		if total > declared {
			return nil, corruptf("stream carries more than the declared %d tuples", declared)
		}
		if ncols == 0 && total > maxZeroColTuples {
			return nil, corruptf("zero-column relation claims %d tuples", total)
		}
	}
	if total != declared {
		return nil, corruptf("header declares %d tuples, stream carried %d", declared, total)
	}
	return out, nil
}

// readColumnarParallel pipelines frame reading with decoding — the
// paper's "read binary data in parallel" access method: a reader
// goroutine pulls frames off the wire while workers decode them out of
// order into mini-batches, reassembled by sequence number and merged
// column-wise.
func readColumnarParallel(r io.Reader, schema Schema, declared uint64, workers int) (*ColumnBatch, error) {
	type frame struct {
		seq     int
		count   int
		payload []byte
	}
	type result struct {
		seq   int
		batch *ColumnBatch
		err   error
	}
	ncols := len(schema.Columns)
	frames := make(chan frame, workers)
	results := make(chan result, workers)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range frames {
				b, err := decodeFrameColumnar(schema, f.payload, f.count)
				results <- result{f.seq, b, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	readErr := make(chan error, 1)
	go func() {
		defer close(frames)
		var total uint64
		seq := 0
		for {
			count, payloadLen, err := readFrameHeader(r, ncols)
			if err != nil {
				readErr <- err
				return
			}
			if count == 0 {
				if total != declared {
					readErr <- corruptf("header declares %d tuples, stream carried %d", declared, total)
				} else {
					readErr <- nil
				}
				return
			}
			payload := make([]byte, payloadLen)
			if _, err := io.ReadFull(r, payload); err != nil {
				readErr <- corruptf("truncated batch payload: %v", err)
				return
			}
			frames <- frame{seq, count, payload}
			seq++
			total += uint64(count)
			if total > declared {
				readErr <- corruptf("stream carries more than the declared %d tuples", declared)
				return
			}
			if ncols == 0 && total > maxZeroColTuples {
				readErr <- corruptf("zero-column relation claims %d tuples", total)
				return
			}
		}
	}()

	var batches []*ColumnBatch
	var firstErr error
	for res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		for res.seq >= len(batches) {
			batches = append(batches, nil)
		}
		batches[res.seq] = res.batch
	}
	if err := <-readErr; err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	n := 0
	for _, b := range batches {
		n += b.NumRows
	}
	out := NewColumnBatch(schema, n)
	for _, b := range batches {
		if err := out.AppendBatch(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}
