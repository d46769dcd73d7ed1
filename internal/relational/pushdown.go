package relational

import (
	"fmt"

	"repro/internal/engine"
)

// DumpBatchWhere is the predicate- and projection-aware CAST egress
// path: it exports the named table in columnar form like DumpBatch, but
// applies a filter predicate (SQL expression text over the table's own
// columns) and a column projection *before* the data leaves the engine,
// so a selective cross-island CAST moves only the rows and columns the
// consuming island will actually touch.
//
// The predicate runs through the same vectorized filter kernels the
// SELECT hot path uses when it compiles (and the vectorized executor is
// on); otherwise it falls back to the interpreted row evaluator, so the
// two executors stay interchangeable. scanned reports how many live
// rows were examined, for CastResult.RowsScanned accounting.
//
// With an empty predicate and nil columns this is exactly DumpBatch:
// the table's immutable column-cache snapshot, zero copies. applied
// reports whether any filtering or non-identity projection actually
// ran (a projection naming every column in schema order is a no-op).
func (db *DB) DumpBatchWhere(name, predicate string, columns []string) (cb *engine.ColumnBatch, scanned int, applied bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return nil, 0, false, err
	}
	base := t.columnBatch()
	scanned = base.NumRows
	db.stats.rowsScanned.Add(int64(scanned))

	var sel []int32
	filtered := false
	if predicate != "" {
		e, err := ParseExpression(predicate)
		if err != nil {
			return nil, scanned, false, fmt.Errorf("relational: pushdown predicate: %w", err)
		}
		if hasAggregate(e) {
			return nil, scanned, false, fmt.Errorf("relational: pushdown predicate cannot contain aggregates")
		}
		rs := baseRowSchema(t.Name, t.Schema)
		compiled := false
		if db.vectorized {
			vc := &vecCompiler{b: base, rs: rs}
			if f, ok := vc.compileFilter(e); ok {
				sel, err = runVecFilter(f, span{hi: base.NumRows})
				if err != nil {
					return nil, scanned, false, err
				}
				compiled = true
			}
		}
		if !compiled {
			ev, err := compileExpr(e, rs, nil)
			if err != nil {
				return nil, scanned, false, err
			}
			sel = make([]int32, 0, base.NumRows)
			for i := 0; i < base.NumRows; i++ {
				v, err := ev(base.Row(i))
				if err != nil {
					return nil, scanned, false, err
				}
				if !v.IsNull() && v.AsBool() {
					sel = append(sel, int32(i))
				}
			}
		}
		filtered = true
	}

	proj, err := projectionIndexes(t.Schema, columns)
	if err != nil {
		return nil, scanned, false, err
	}
	if !filtered && proj == nil {
		return base, scanned, false, nil
	}

	srcIdx := proj
	if srcIdx == nil {
		srcIdx = make([]int, len(base.Cols))
		for j := range srcIdx {
			srcIdx[j] = j
		}
	}
	cols := make([]engine.Column, len(srcIdx))
	for k, j := range srcIdx {
		cols[k] = t.Schema.Columns[j]
	}
	out := &engine.ColumnBatch{
		Schema: engine.Schema{Columns: cols},
		Cols:   make([]engine.ColVec, len(srcIdx)),
	}
	if filtered {
		out.NumRows = len(sel)
		for k, j := range srcIdx {
			out.Cols[k] = gatherVec(&base.Cols[j], sel)
		}
	} else {
		// Projection only: share the immutable cached vectors.
		out.NumRows = base.NumRows
		for k, j := range srcIdx {
			out.Cols[k] = base.Cols[j]
		}
	}
	return out, scanned, true, nil
}

// projectionIndexes resolves a projection column list against the
// schema, returning nil when the projection is absent (or names every
// column in schema order, in which case it is a no-op).
func projectionIndexes(schema engine.Schema, columns []string) ([]int, error) {
	if len(columns) == 0 {
		return nil, nil
	}
	idx := make([]int, len(columns))
	identity := len(columns) == len(schema.Columns)
	for k, name := range columns {
		j := schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relational: pushdown projection: no column %q", name)
		}
		idx[k] = j
		if j != k {
			identity = false
		}
	}
	if identity {
		return nil, nil
	}
	return idx, nil
}
