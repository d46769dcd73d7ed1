package engine

import (
	"bytes"
	"fmt"
	"testing"
)

func benchRelation(rows int) *Relation {
	r := NewRelation(NewSchema(
		Col("id", TypeInt), Col("name", TypeString), Col("v", TypeFloat)))
	for i := 0; i < rows; i++ {
		_ = r.Append(Tuple{NewInt(int64(i)), NewString(fmt.Sprintf("name_%d", i)), NewFloat(float64(i) / 3)})
	}
	return r
}

func BenchmarkWriteBinary(b *testing.B) {
	r := benchRelation(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := r.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	r := benchRelation(10_000)
	var buf bytes.Buffer
	if err := r.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	r := benchRelation(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	r := benchRelation(10_000)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	vals := []Value{NewInt(3), NewFloat(3.5), NewString("abc"), NewBool(true), Null}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compare(vals[i%5], vals[(i+1)%5])
	}
}
