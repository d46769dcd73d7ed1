package main

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// answer is what the oracle remembers of one query's result: enough
// to tell a right response from a wrong one without keeping the rows.
type answer struct {
	rows, cols int
	digest     uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func hashValue(h uint64, v engine.Value) uint64 {
	h = (h ^ uint64(v.Kind)) * fnvPrime
	switch v.Kind {
	case engine.TypeInt:
		h = mix64(h, uint64(v.I))
	case engine.TypeFloat:
		h = mix64(h, math.Float64bits(v.F))
	case engine.TypeString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime
		}
		h = mix64(h, uint64(len(v.S)))
	case engine.TypeBool:
		if v.B {
			h = (h ^ 1) * fnvPrime
		}
	}
	return h
}

// digestOf is the canonical digest of a result: column names, then
// every cell by kind and exact bits. With ordered set the rows are
// chained, so a permutation changes the digest; otherwise row hashes
// are summed and any row order digests alike.
func digestOf(rel *engine.Relation, ordered bool) answer {
	h := uint64(fnvOffset)
	for _, c := range rel.Schema.Columns {
		h = hashValue(h, engine.NewString(c.Name))
	}
	var sum uint64
	for _, t := range rel.Tuples {
		rh := uint64(fnvOffset)
		for _, v := range t {
			rh = hashValue(rh, v)
		}
		if ordered {
			h = mix64(h, rh)
		} else {
			sum += rh
		}
	}
	return answer{rows: rel.Len(), cols: len(rel.Schema.Columns), digest: mix64(h, sum)}
}

// check compares a response with the oracle's answer.
func (a answer) check(rel *engine.Relation, ordered bool) error {
	if rel == nil {
		return fmt.Errorf("nil result")
	}
	if rel.Len() != a.rows || len(rel.Schema.Columns) != a.cols {
		return fmt.Errorf("got %d rows x %d cols, oracle has %d x %d",
			rel.Len(), len(rel.Schema.Columns), a.rows, a.cols)
	}
	if got := digestOf(rel, ordered); got.digest != a.digest {
		return fmt.Errorf("digest %016x, oracle has %016x", got.digest, a.digest)
	}
	return nil
}
