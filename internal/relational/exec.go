package relational

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Execute parses and runs one SQL statement. DML statements return a
// single-row relation reporting affected row counts; SELECT returns its
// result set.
func (db *DB) Execute(sql string) (*engine.Relation, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case CreateTable:
		if err := db.CreateTable(s.Name, s.Schema, s.PrimaryKey); err != nil {
			return nil, err
		}
		return statusRelation("created", 0), nil
	case CreateIndex:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(s.Table)
		if err != nil {
			return nil, err
		}
		if err := t.addIndex(s.Column); err != nil {
			return nil, err
		}
		return statusRelation("indexed", 0), nil
	case DropTable:
		if err := db.DropTable(s.Name); err != nil {
			return nil, err
		}
		return statusRelation("dropped", 0), nil
	case Insert:
		n, err := db.executeInsert(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("inserted", n), nil
	case Update:
		n, err := db.executeUpdate(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("updated", n), nil
	case Delete:
		n, err := db.executeDelete(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("deleted", n), nil
	case *Select:
		return db.ExecuteSelect(s)
	default:
		return nil, fmt.Errorf("relational: unhandled statement %T", stmt)
	}
}

// Query is Execute restricted to SELECT, for island use.
func (db *DB) Query(sql string) (*engine.Relation, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("relational: Query requires SELECT, got %T", stmt)
	}
	return db.ExecuteSelect(sel)
}

func statusRelation(op string, n int) *engine.Relation {
	rel := engine.NewRelation(engine.NewSchema(engine.Col("status", engine.TypeString), engine.Col("rows", engine.TypeInt)))
	_ = rel.Append(engine.Tuple{engine.NewString(op), engine.NewInt(int64(n))})
	return rel
}

func (db *DB) executeInsert(s Insert) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	colIdx := make([]int, len(s.Columns))
	for i, c := range s.Columns {
		ci := t.Schema.Index(c)
		if ci < 0 {
			return 0, fmt.Errorf("relational: %s: no column %q", s.Table, c)
		}
		colIdx[i] = ci
	}
	n := 0
	for _, exprRow := range s.Rows {
		row := make(engine.Tuple, len(t.Schema.Columns))
		for i := range row {
			row[i] = engine.Null
		}
		if len(s.Columns) == 0 {
			if len(exprRow) != len(row) {
				return n, fmt.Errorf("relational: %s: VALUES arity %d != %d", s.Table, len(exprRow), len(row))
			}
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return n, err
				}
				row[i] = v
			}
		} else {
			if len(exprRow) != len(s.Columns) {
				return n, fmt.Errorf("relational: %s: VALUES arity %d != column list %d", s.Table, len(exprRow), len(s.Columns))
			}
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return n, err
				}
				row[colIdx[i]] = v
			}
		}
		if err := t.insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// evalConst evaluates an expression with no row context (literals and
// arithmetic over them).
func evalConst(e Expr) (engine.Value, error) {
	ev, err := compileExpr(e, nil, nil)
	if err != nil {
		return engine.Null, err
	}
	return ev(nil)
}

func (db *DB) executeUpdate(s Update) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	rs := baseRowSchema(t.Name, t.Schema)
	var where evaluator
	if s.Where != nil {
		where, err = compileExpr(s.Where, rs, nil)
		if err != nil {
			return 0, err
		}
	}
	type setOp struct {
		col  int
		eval evaluator
	}
	var sets []setOp
	for col, e := range s.Set {
		ci := t.Schema.Index(col)
		if ci < 0 {
			return 0, fmt.Errorf("relational: %s: no column %q", s.Table, col)
		}
		ev, err := compileExpr(e, rs, nil)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{ci, ev})
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].col < sets[j].col })
	n := 0
	// Collect matching slots first so SET expressions see pre-update values.
	slots, err := db.collectMatchingSlots(t, rs, s.Where, where)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		row := t.rows[slot]
		newRow := row.Clone()
		for _, op := range sets {
			v, err := op.eval(row)
			if err != nil {
				return n, err
			}
			newRow[op.col] = v
		}
		// Re-insert through delete+insert to keep indexes coherent.
		t.deleteSlot(slot)
		if err := t.insert(newRow); err != nil {
			return n, err
		}
		n++
	}
	db.stats.queries.Add(1)
	return n, nil
}

// collectMatchingSlots returns the slots whose live rows satisfy WHERE,
// routing through an index when the predicate pins an indexed column to
// a literal — the same fast path ExecuteSelect uses, so a PK-equality
// UPDATE or DELETE no longer full-scans. The full predicate is still
// re-applied to the candidates (the equality may be one AND-branch of a
// wider condition, and secondary indexes are non-unique).
func (db *DB) collectMatchingSlots(t *Table, rs rowSchema, whereExpr Expr, where evaluator) ([]int, error) {
	if whereExpr != nil {
		if ci, v, ok := indexableEquality(whereExpr, rs, t); ok {
			if cand, hit := t.lookup(ci, v); hit {
				db.stats.rowsScanned.Add(int64(len(cand)))
				slots := make([]int, 0, len(cand))
				for _, slot := range cand {
					if t.deleted[slot] {
						continue
					}
					if where != nil {
						val, err := where(t.rows[slot])
						if err != nil {
							return nil, err
						}
						if val.IsNull() || !val.AsBool() {
							continue
						}
					}
					slots = append(slots, slot)
				}
				return slots, nil
			}
		}
	}
	var slots []int
	err := t.scan(func(slot int, row engine.Tuple) error {
		db.stats.rowsScanned.Add(1)
		if where != nil {
			v, err := where(row)
			if err != nil {
				return err
			}
			if v.IsNull() || !v.AsBool() {
				return nil
			}
		}
		slots = append(slots, slot)
		return nil
	})
	return slots, err
}

func (db *DB) executeDelete(s Delete) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	rs := baseRowSchema(t.Name, t.Schema)
	var where evaluator
	if s.Where != nil {
		where, err = compileExpr(s.Where, rs, nil)
		if err != nil {
			return 0, err
		}
	}
	slots, err := db.collectMatchingSlots(t, rs, s.Where, where)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		t.deleteSlot(slot)
	}
	db.stats.queries.Add(1)
	return len(slots), nil
}

// rowset is the working set flowing through the SELECT pipeline:
// either a column batch plus selection vector (the vectorized executor)
// or materialised tuples (the row-at-a-time path and every fallback).
type rowset struct {
	rs     rowSchema
	batch  *engine.ColumnBatch
	sel    []int32 // selection into batch; nil = all rows
	rows   []engine.Tuple
	isRows bool
}

// span returns the rows of the batch in the working set: the selection,
// or every row while nothing has filtered it.
func (w *rowset) span() span {
	if w.sel != nil {
		return span{sel: w.sel}
	}
	return span{hi: w.batch.NumRows}
}

// materialize converts the working set to row form; the bridge from the
// vectorized pipeline into the row-at-a-time fallback.
func (w *rowset) materialize() []engine.Tuple {
	if !w.isRows {
		if w.batch != nil {
			w.rows = materializeRows(w.batch, w.sel)
		}
		w.isRows = true
		w.batch, w.sel = nil, nil
	}
	return w.rows
}

// ExecuteSelect runs a parsed SELECT.
func (db *DB) ExecuteSelect(s *Select) (*engine.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.stats.queries.Add(1)

	// 1. Build the working set (FROM + JOINs), or a single empty row for
	// table-less SELECTs. Base scans come back columnar when the
	// vectorized executor is on; any stage the vectorizer cannot compile
	// materialises rows and continues on the row path.
	var ws rowset
	var err error
	where := s.Where
	if s.From == nil {
		ws.rows, ws.isRows = []engine.Tuple{{}}, true
	} else {
		var base *Table
		base, err = db.table(s.From.Name)
		if err != nil {
			return nil, err
		}
		alias := s.From.Alias
		if alias == "" {
			alias = base.Name
		}
		ws.rs = baseRowSchema(alias, base.Schema)
		db.scanBase(base, &ws, s)
		jts := make([]*Table, len(s.Joins))
		joined := ws.rs
		for i, j := range s.Joins {
			if jts[i], err = db.table(j.Table.Name); err != nil {
				return nil, err
			}
			joined = append(joined[:len(joined):len(joined)], baseRowSchema(joinAlias(j, jts[i]), jts[i].Schema)...)
		}
		// Vectorized only: WHERE conjuncts on the FROM table filter it
		// before the joins probe and gather it, when they compile to a
		// selection filter there.
		if !ws.isRows && len(s.Joins) > 0 && where != nil {
			if below, above := preJoinFilter(where, s.Joins, len(ws.rs), joined); below != nil {
				if ok, err := filterVec(&ws, below); err != nil {
					return nil, err
				} else if ok {
					where = above
				}
			}
		}
		for i, j := range s.Joins {
			if err := db.joinStep(&ws, jts[i], joinAlias(j, jts[i]), j); err != nil {
				return nil, err
			}
		}
	}

	// 2. WHERE.
	if where != nil {
		if err := db.applyWhere(&ws, where); err != nil {
			return nil, err
		}
	}

	// 3. Grouped vs plain projection.
	grouped := len(s.GroupBy) > 0
	if !grouped {
		for _, item := range s.Items {
			if !item.Star && hasAggregate(item.Expr) {
				grouped = true // implicit single group, e.g. SELECT COUNT(*) FROM t
				break
			}
		}
	}
	var out *engine.Relation
	if grouped {
		out, err = db.projectGrouped(s, &ws)
	} else {
		out, err = db.projectPlain(s, &ws)
	}
	if err != nil {
		return nil, err
	}

	// 4. DISTINCT.
	if s.Distinct {
		seen := map[string]bool{}
		kept := out.Tuples[:0]
		for _, t := range out.Tuples {
			k := tupleKey(t[:len(out.Schema.Columns)])
			if !seen[k] {
				seen[k] = true
				kept = append(kept, t)
			}
		}
		out.Tuples = kept
	}

	// 5. ORDER BY (hidden sort columns appended by projection).
	nOut := len(out.Schema.Columns)
	if len(s.OrderBy) > 0 {
		descs := make([]bool, len(s.OrderBy))
		for i, o := range s.OrderBy {
			descs[i] = o.Desc
		}
		sort.SliceStable(out.Tuples, func(i, j int) bool {
			a, b := out.Tuples[i], out.Tuples[j]
			for k := range s.OrderBy {
				cmp := engine.Compare(a[nOut+k], b[nOut+k])
				if cmp != 0 {
					if descs[k] {
						return cmp > 0
					}
					return cmp < 0
				}
			}
			return false
		})
	}
	// Strip hidden sort columns.
	if len(s.OrderBy) > 0 {
		for i, t := range out.Tuples {
			out.Tuples[i] = t[:nOut]
		}
	}

	// 6. OFFSET/LIMIT.
	if s.Offset > 0 {
		if s.Offset >= len(out.Tuples) {
			out.Tuples = nil
		} else {
			out.Tuples = out.Tuples[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(out.Tuples) {
		out.Tuples = out.Tuples[:s.Limit]
	}
	return out, nil
}

func joinAlias(j Join, t *Table) string {
	if j.Table.Alias != "" {
		return j.Table.Alias
	}
	return t.Name
}

// preJoinFilter splits WHERE by SplitBelowJoin for the FROM table (its
// first fromCols working columns): a column is the FROM table's when it
// resolves, unambiguously, in the joined schema to one of them.
func preJoinFilter(where Expr, joins []Join, fromCols int, joined rowSchema) (below, above Expr) {
	b, a := SplitBelowJoin(where, joins, 0, func(cr ColumnRef) (bool, bool) {
		idx, err := joined.resolve(cr.Table, cr.Name)
		return err == nil && idx < fromCols, err == nil
	})
	return conjoin(b), conjoin(a)
}

// conjoin ANDs the conjuncts left to right (nil for none).
func conjoin(cs []Expr) Expr {
	var acc Expr
	for _, c := range cs {
		if acc == nil {
			acc = c
		} else {
			acc = BinaryExpr{Op: "AND", Left: acc, Right: c}
		}
	}
	return acc
}

// scanBase reads the base table into the working set: via an index when
// WHERE pins an indexed column to a literal, else as the cached column
// batch (vectorized executor) or a row scan.
func (db *DB) scanBase(t *Table, ws *rowset, s *Select) {
	if len(s.Joins) == 0 && s.Where != nil {
		if ci, v, ok := indexableEquality(s.Where, ws.rs, t); ok {
			if slots, hit := t.lookup(ci, v); hit {
				rows := make([]engine.Tuple, 0, len(slots))
				for _, slot := range slots {
					if !t.deleted[slot] {
						rows = append(rows, t.rows[slot])
					}
				}
				db.stats.rowsScanned.Add(int64(len(rows)))
				ws.rows, ws.isRows = rows, true
				return
			}
		}
	}
	if db.vectorized {
		ws.batch = t.columnBatch()
		db.stats.rowsScanned.Add(int64(ws.batch.NumRows))
		return
	}
	rows := make([]engine.Tuple, 0, t.live)
	_ = t.scan(func(_ int, row engine.Tuple) error {
		rows = append(rows, row)
		return nil
	})
	db.stats.rowsScanned.Add(int64(len(rows)))
	ws.rows, ws.isRows = rows, true
}

// joinStep joins the working set with table jt, using the batch hash
// join when the working set is columnar and the ON clause is a typed
// equi-join; otherwise it materialises rows and uses the row join.
func (db *DB) joinStep(ws *rowset, jt *Table, jalias string, j Join) error {
	if !ws.isRows && db.vectorized && j.Kind != JoinCross && j.On != nil {
		rightRS := baseRowSchema(jalias, jt.Schema)
		if lIdx, rIdx, ok := equiJoinCols(j.On, ws.rs, rightRS); ok {
			rb := jt.columnBatch()
			combined := append(append(rowSchema{}, ws.rs...), rightRS...)
			if out, ok := vecHashJoin(ws.batch, ws.span(), rb, lIdx, rIdx, j.Kind, combined.toSchema()); ok {
				db.stats.rowsScanned.Add(int64(rb.NumRows))
				ws.batch, ws.sel, ws.rs = out, nil, combined
				return nil
			}
		}
	}
	rows, rs, err := db.executeJoin(ws.materialize(), ws.rs, jt, jalias, j)
	if err != nil {
		return err
	}
	ws.rows, ws.rs, ws.isRows = rows, rs, true
	return nil
}

// applyWhere filters the working set, vectorized when the predicate
// compiles to a selection filter (partitioned across workers for large
// batches), else row-at-a-time.
func (db *DB) applyWhere(ws *rowset, where Expr) error {
	if !ws.isRows {
		if ok, err := filterVec(ws, where); ok || err != nil {
			return err
		}
	}
	rows := ws.materialize()
	ev, err := compileExpr(where, ws.rs, nil)
	if err != nil {
		return err
	}
	kept := rows[:0]
	for _, row := range rows {
		v, err := ev(row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.AsBool() {
			kept = append(kept, row)
		}
	}
	ws.rows = kept
	return nil
}

// filterVec narrows a columnar working set's selection by where when
// it compiles to a selection filter; ok=false leaves the set untouched.
func filterVec(ws *rowset, where Expr) (ok bool, err error) {
	f, ok := (&vecCompiler{b: ws.batch, rs: ws.rs}).compileFilter(where)
	if !ok {
		return false, nil
	}
	sel, err := runVecFilter(f, ws.span())
	if err != nil {
		return true, err
	}
	ws.sel = sel
	return true, nil
}

// indexableEquality detects `col = literal` (or literal = col) at the
// top level or on either side of an AND, where col has an index.
func indexableEquality(e Expr, rs rowSchema, t *Table) (ci int, v engine.Value, ok bool) {
	be, isBin := e.(BinaryExpr)
	if !isBin {
		return 0, engine.Null, false
	}
	if be.Op == "AND" {
		if ci, v, ok = indexableEquality(be.Left, rs, t); ok {
			return ci, v, true
		}
		return indexableEquality(be.Right, rs, t)
	}
	if be.Op != "=" {
		return 0, engine.Null, false
	}
	col, lit := be.Left, be.Right
	if _, isCol := col.(ColumnRef); !isCol {
		col, lit = be.Right, be.Left
	}
	cr, isCol := col.(ColumnRef)
	l, isLit := lit.(Literal)
	if !isCol || !isLit {
		return 0, engine.Null, false
	}
	idx, err := rs.resolve(cr.Table, cr.Name)
	if err != nil {
		return 0, engine.Null, false
	}
	// Working schema position == table column position for base scans.
	if idx == t.PKCol {
		return idx, l.Val, true
	}
	if _, hasIdx := t.secondary[idx]; hasIdx {
		return idx, l.Val, true
	}
	return 0, engine.Null, false
}

// executeJoin joins the accumulated working rows with table jt.
func (db *DB) executeJoin(left []engine.Tuple, leftRS rowSchema, jt *Table, jalias string, j Join) ([]engine.Tuple, rowSchema, error) {
	rightRS := baseRowSchema(jalias, jt.Schema)
	combined := append(append(rowSchema{}, leftRS...), rightRS...)

	var rightRows []engine.Tuple
	_ = jt.scan(func(_ int, row engine.Tuple) error {
		rightRows = append(rightRows, row)
		return nil
	})
	db.stats.rowsScanned.Add(int64(len(rightRows)))

	if j.Kind == JoinCross {
		out := make([]engine.Tuple, 0, len(left)*len(rightRows))
		for _, l := range left {
			for _, r := range rightRows {
				out = append(out, concatTuples(l, r))
			}
		}
		return out, combined, nil
	}

	// Hash join when ON is an equality between a left column and a right
	// column; otherwise nested loop.
	if lIdx, rIdx, ok := equiJoinCols(j.On, leftRS, rightRS); ok {
		build := make(map[string][]engine.Tuple, len(rightRows))
		for _, r := range rightRows {
			k := valueKey(r[rIdx])
			build[k] = append(build[k], r)
		}
		out := make([]engine.Tuple, 0, len(left))
		nullRight := nullTuple(len(rightRS))
		for _, l := range left {
			matches := build[valueKey(l[lIdx])]
			// NULL join keys never match.
			if l[lIdx].IsNull() {
				matches = nil
			}
			if len(matches) == 0 {
				if j.Kind == JoinLeft {
					out = append(out, concatTuples(l, nullRight))
				}
				continue
			}
			for _, r := range matches {
				out = append(out, concatTuples(l, r))
			}
		}
		return out, combined, nil
	}

	on, err := compileExpr(j.On, combined, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([]engine.Tuple, 0, len(left))
	nullRight := nullTuple(len(rightRS))
	for _, l := range left {
		matched := false
		for _, r := range rightRows {
			row := concatTuples(l, r)
			v, err := on(row)
			if err != nil {
				return nil, nil, err
			}
			if !v.IsNull() && v.AsBool() {
				out = append(out, row)
				matched = true
			}
		}
		if !matched && j.Kind == JoinLeft {
			out = append(out, concatTuples(l, nullRight))
		}
	}
	return out, combined, nil
}

// equiJoinCols recognises ON a.x = b.y with one side in each schema.
func equiJoinCols(on Expr, leftRS, rightRS rowSchema) (lIdx, rIdx int, ok bool) {
	be, isBin := on.(BinaryExpr)
	if !isBin || be.Op != "=" {
		return 0, 0, false
	}
	lc, lok := be.Left.(ColumnRef)
	rc, rok := be.Right.(ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := leftRS.resolve(lc.Table, lc.Name); err == nil {
		if ri, err := rightRS.resolve(rc.Table, rc.Name); err == nil {
			return li, ri, true
		}
	}
	if li, err := leftRS.resolve(rc.Table, rc.Name); err == nil {
		if ri, err := rightRS.resolve(lc.Table, lc.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

func concatTuples(a, b engine.Tuple) engine.Tuple {
	out := make(engine.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func nullTuple(n int) engine.Tuple {
	t := make(engine.Tuple, n)
	for i := range t {
		t[i] = engine.Null
	}
	return t
}

// expandItems resolves "*" items into explicit column refs and derives
// output names.
func expandItems(items []SelectItem, rs rowSchema) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	for _, item := range items {
		if item.Star {
			table := strings.ToLower(item.Table)
			found := false
			for _, c := range rs {
				if table != "" && c.Table != table {
					continue
				}
				exprs = append(exprs, ColumnRef{Table: c.Table, Name: c.Name})
				names = append(names, c.Name)
				found = true
			}
			if !found {
				return nil, nil, fmt.Errorf("relational: %s.* matches no columns", item.Table)
			}
			continue
		}
		exprs = append(exprs, item.Expr)
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(ColumnRef); ok {
				name = cr.Name
			} else {
				name = exprKey(item.Expr)
			}
		}
		names = append(names, name)
	}
	return exprs, names, nil
}

// projectPlain projects ungrouped rows. Hidden ORDER BY columns are
// appended after the visible ones.
func (db *DB) projectPlain(s *Select, ws *rowset) (*engine.Relation, error) {
	rs := ws.rs
	exprs, names, err := expandItems(s.Items, rs)
	if err != nil {
		return nil, err
	}
	// Vectorized projection: every output expression compiles to a
	// kernel and there is no ORDER BY (whose alias/positional references
	// need the row-path machinery).
	if !ws.isRows && len(s.OrderBy) == 0 {
		if rel, ok, err := projectPlainVec(exprs, names, ws); err != nil {
			return nil, err
		} else if ok {
			return rel, nil
		}
	}
	rows := ws.materialize()
	evals := make([]evaluator, len(exprs))
	for i, e := range exprs {
		evals[i], err = compileExpr(e, rs, nil)
		if err != nil {
			return nil, err
		}
	}
	orderEvals, err := compileOrderBy(s.OrderBy, rs, exprs, names, nil)
	if err != nil {
		return nil, err
	}
	schema := outputSchema(names, exprs, rs)
	out := engine.NewRelation(schema)
	out.Tuples = make([]engine.Tuple, 0, len(rows))
	width := len(evals) + len(orderEvals)
	for _, row := range rows {
		t := make(engine.Tuple, 0, width)
		for _, ev := range evals {
			v, err := ev(row)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		for _, ev := range orderEvals {
			v, err := ev(t, row)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// projectPlainVec evaluates the output expressions as column kernels
// over the selection and assembles the result tuples from one arena.
func projectPlainVec(exprs []Expr, names []string, ws *rowset) (*engine.Relation, bool, error) {
	vc := &vecCompiler{b: ws.batch, rs: ws.rs}
	evs := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		ev, ok := vc.compile(e)
		if !ok {
			return nil, false, nil
		}
		evs[i] = ev
	}
	sp := ws.span()
	out := engine.NewRelation(outputSchema(names, exprs, ws.rs))
	n, ncols := sp.len(), len(evs)
	out.Tuples = make([]engine.Tuple, n)
	arena := make([]engine.Value, n*ncols)
	for k := range out.Tuples {
		out.Tuples[k] = engine.Tuple(arena[k*ncols : (k+1)*ncols : (k+1)*ncols])
	}
	var v vec
	for j := range evs {
		if err := evs[j].eval(sp, &v); err != nil {
			return nil, false, err
		}
		for k := 0; k < n; k++ {
			arena[k*ncols+j] = v.valueAt(k)
		}
	}
	return out, true, nil
}

// orderEval evaluates an ORDER BY expression given the already-projected
// visible values (for alias references) and the source row.
type orderEval func(projected engine.Tuple, row engine.Tuple) (engine.Value, error)

func compileOrderBy(items []OrderItem, rs rowSchema, outExprs []Expr, outNames []string,
	aggLookup func(string, engine.Tuple) (engine.Value, bool)) ([]orderEval, error) {
	evals := make([]orderEval, 0, len(items))
	for _, o := range items {
		// Positional: ORDER BY 2.
		if lit, ok := o.Expr.(Literal); ok && lit.Val.Kind == engine.TypeInt {
			pos := int(lit.Val.I) - 1
			if pos < 0 || pos >= len(outExprs) {
				return nil, fmt.Errorf("relational: ORDER BY position %d out of range", pos+1)
			}
			evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
				return projected[pos], nil
			})
			continue
		}
		// Alias reference: ORDER BY aliasName.
		if cr, ok := o.Expr.(ColumnRef); ok && cr.Table == "" {
			matched := -1
			for i, n := range outNames {
				if strings.EqualFold(n, cr.Name) {
					matched = i
					break
				}
			}
			// Prefer alias match when the name is not a source column, or
			// when it exactly names an output column.
			if matched >= 0 {
				if _, err := rs.resolve("", cr.Name); err != nil {
					pos := matched
					evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
						return projected[pos], nil
					})
					continue
				}
				// Name exists both as alias and source column; alias wins
				// only if it aliases that same column.
				if crOut, ok := outExprs[matched].(ColumnRef); ok && strings.EqualFold(crOut.Name, cr.Name) {
					pos := matched
					evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
						return projected[pos], nil
					})
					continue
				}
			}
		}
		ev, err := compileExpr(o.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		evals = append(evals, func(_, row engine.Tuple) (engine.Value, error) { return ev(row) })
	}
	return evals, nil
}

// outputSchema infers output column types from expressions where
// possible, defaulting to FLOAT for computed values.
func outputSchema(names []string, exprs []Expr, rs rowSchema) engine.Schema {
	cols := make([]engine.Column, len(names))
	for i := range names {
		cols[i] = engine.Col(names[i], inferExprType(exprs[i], rs))
	}
	return engine.Schema{Columns: cols}
}

func inferExprType(e Expr, rs rowSchema) engine.Type {
	switch ex := e.(type) {
	case Literal:
		return ex.Val.Kind
	case ColumnRef:
		if idx, err := rs.resolve(ex.Table, ex.Name); err == nil {
			return rs[idx].Type
		}
	case FuncCall:
		switch ex.Name {
		case "COUNT", "LENGTH":
			return engine.TypeInt
		case "LOWER", "UPPER", "SUBSTR", "SUBSTRING", "CONCAT":
			return engine.TypeString
		case "MIN", "MAX", "SUM":
			if len(ex.Args) == 1 {
				return inferExprType(ex.Args[0], rs)
			}
		}
		return engine.TypeFloat
	case BinaryExpr:
		switch ex.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return engine.TypeBool
		case "||":
			return engine.TypeString
		default:
			lt := inferExprType(ex.Left, rs)
			rt := inferExprType(ex.Right, rs)
			if lt == engine.TypeInt && rt == engine.TypeInt && ex.Op != "/" {
				return engine.TypeInt
			}
			return engine.TypeFloat
		}
	case UnaryExpr:
		if ex.Op == "NOT" {
			return engine.TypeBool
		}
		return inferExprType(ex.Expr, rs)
	case InExpr, IsNullExpr, BetweenExpr:
		return engine.TypeBool
	}
	return engine.TypeFloat
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	fn       string
	count    int64
	sum      float64
	sumSq    float64
	min, max engine.Value
	distinct map[string]bool
	hasVal   bool
}

func newAggState(fc FuncCall) *aggState {
	st := &aggState{fn: fc.Name}
	if fc.Distinct {
		st.distinct = map[string]bool{}
	}
	return st
}

func (st *aggState) add(v engine.Value) {
	if v.IsNull() {
		return
	}
	if st.distinct != nil {
		k := valueKey(v)
		if st.distinct[k] {
			return
		}
		st.distinct[k] = true
	}
	st.count++
	f := v.AsFloat()
	st.sum += f
	st.sumSq += f * f
	if !st.hasVal {
		st.min, st.max = v, v
		st.hasVal = true
	} else {
		if engine.Compare(v, st.min) < 0 {
			st.min = v
		}
		if engine.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

func (st *aggState) result() engine.Value {
	switch st.fn {
	case "COUNT":
		return engine.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return engine.Null
		}
		if st.sum == math.Trunc(st.sum) && st.min.Kind == engine.TypeInt && st.max.Kind == engine.TypeInt {
			return engine.NewInt(int64(st.sum))
		}
		return engine.NewFloat(st.sum)
	case "AVG":
		if st.count == 0 {
			return engine.Null
		}
		return engine.NewFloat(st.sum / float64(st.count))
	case "MIN":
		if !st.hasVal {
			return engine.Null
		}
		return st.min
	case "MAX":
		if !st.hasVal {
			return engine.Null
		}
		return st.max
	case "STDDEV":
		if st.count < 2 {
			return engine.Null
		}
		n := float64(st.count)
		variance := (st.sumSq - st.sum*st.sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return engine.NewFloat(math.Sqrt(variance))
	default:
		return engine.Null
	}
}

// aggGroup accumulates one GROUP BY bucket: the group's first source
// row (for evaluating non-aggregate expressions) and its aggregates.
type aggGroup struct {
	firstRow engine.Tuple
	aggs     []*aggState
}

func newAggGroup(firstRow engine.Tuple, aggCalls []FuncCall) *aggGroup {
	g := &aggGroup{firstRow: firstRow, aggs: make([]*aggState, len(aggCalls))}
	for i, fc := range aggCalls {
		g.aggs[i] = newAggState(fc)
	}
	return g
}

// projectGrouped handles GROUP BY / aggregate projection. Accumulation
// — the O(rows) part — runs vectorized when the group keys and
// aggregate arguments compile to kernels; the per-group output phase is
// shared with the row path.
func (db *DB) projectGrouped(s *Select, ws *rowset) (*engine.Relation, error) {
	rs := ws.rs
	exprs, names, err := expandItems(s.Items, rs)
	if err != nil {
		return nil, err
	}

	// Collect every aggregate appearing anywhere in the query.
	all := make([]Expr, 0, len(exprs)+2)
	all = append(all, exprs...)
	if s.Having != nil {
		all = append(all, s.Having)
	}
	for _, o := range s.OrderBy {
		all = append(all, o.Expr)
	}
	aggCalls := collectAggregates(all)
	aggKeys := make([]string, len(aggCalls))
	for i, fc := range aggCalls {
		aggKeys[i] = exprKey(fc)
		if !fc.Star && len(fc.Args) != 1 {
			return nil, fmt.Errorf("relational: %s expects 1 argument", fc.Name)
		}
	}

	// GROUP BY may reference an output alias; resolve once for both
	// accumulation paths.
	groupBy := make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		resolved := g
		if cr, ok := g.(ColumnRef); ok && cr.Table == "" {
			if _, err := rs.resolve("", cr.Name); err != nil {
				for j, n := range names {
					if strings.EqualFold(n, cr.Name) {
						resolved = exprs[j]
						break
					}
				}
			}
		}
		groupBy[i] = resolved
	}

	var groups map[string]*aggGroup
	var order []string
	accumulated := false
	if !ws.isRows {
		groups, order, accumulated, err = groupAccumVec(ws, groupBy, aggCalls)
		if err != nil {
			return nil, err
		}
	}
	if !accumulated {
		groups, order, err = db.groupAccumRows(ws, groupBy, aggCalls)
		if err != nil {
			return nil, err
		}
	}
	// Aggregate-only query over zero rows still yields one group.
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		groups[""] = newAggGroup(nullTuple(len(rs)), aggCalls)
		order = append(order, "")
	}

	// Compile output expressions with aggregate lookup. The lookup closes
	// over a per-row map swapped in while iterating groups.
	var currentAggs map[string]engine.Value
	aggLookup := func(key string, _ engine.Tuple) (engine.Value, bool) {
		v, ok := currentAggs[key]
		return v, ok
	}
	evals := make([]evaluator, len(exprs))
	for i, e := range exprs {
		evals[i], err = compileExpr(e, rs, aggLookup)
		if err != nil {
			return nil, err
		}
	}
	var having evaluator
	if s.Having != nil {
		having, err = compileExpr(s.Having, rs, aggLookup)
		if err != nil {
			return nil, err
		}
	}
	orderEvals, err := compileOrderBy(s.OrderBy, rs, exprs, names, aggLookup)
	if err != nil {
		return nil, err
	}

	schema := outputSchema(names, exprs, rs)
	// Aggregates get better type inference from their state.
	for i, e := range exprs {
		if fc, ok := e.(FuncCall); ok && aggregateNames[fc.Name] {
			switch fc.Name {
			case "COUNT":
				schema.Columns[i].Type = engine.TypeInt
			case "AVG", "STDDEV":
				schema.Columns[i].Type = engine.TypeFloat
			}
		}
	}
	out := engine.NewRelation(schema)
	for _, k := range order {
		g := groups[k]
		currentAggs = make(map[string]engine.Value, len(aggKeys))
		for i, key := range aggKeys {
			currentAggs[key] = g.aggs[i].result()
		}
		if having != nil {
			v, err := having(g.firstRow)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		t := make(engine.Tuple, 0, len(evals)+len(orderEvals))
		for _, ev := range evals {
			v, err := ev(g.firstRow)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		for _, ev := range orderEvals {
			v, err := ev(t, g.firstRow)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// groupAccumRows is the row-at-a-time accumulation loop: interpreted
// group-key and aggregate-argument closures per row.
func (db *DB) groupAccumRows(ws *rowset, groupBy []Expr, aggCalls []FuncCall) (map[string]*aggGroup, []string, error) {
	rs := ws.rs
	groupEvals := make([]evaluator, len(groupBy))
	for i, g := range groupBy {
		ev, err := compileExpr(g, rs, nil)
		if err != nil {
			return nil, nil, err
		}
		groupEvals[i] = ev
	}
	aggArgEvals := make([]evaluator, len(aggCalls))
	for i, fc := range aggCalls {
		if fc.Star {
			continue // COUNT(*)
		}
		ev, err := compileExpr(fc.Args[0], rs, nil)
		if err != nil {
			return nil, nil, err
		}
		aggArgEvals[i] = ev
	}
	groups := map[string]*aggGroup{}
	var order []string
	for _, row := range ws.materialize() {
		var kb strings.Builder
		for _, ge := range groupEvals {
			v, err := ge(row)
			if err != nil {
				return nil, nil, err
			}
			kb.WriteString(valueKey(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = newAggGroup(row, aggCalls)
			groups[k] = g
			order = append(order, k)
		}
		for i, st := range g.aggs {
			if aggArgEvals[i] == nil {
				st.count++ // COUNT(*)
				continue
			}
			v, err := aggArgEvals[i](row)
			if err != nil {
				return nil, nil, err
			}
			st.add(v)
		}
	}
	return groups, order, nil
}

// groupInput is one GROUP BY key or aggregate argument: a column
// vector read for the k-th selected row at index sp.at(k). A bare
// column is the cached vector itself, read in place through the
// selection; any other expression is a kernel result evaluated densely
// over the selection.
type groupInput struct {
	col *engine.ColVec
	sp  span
}

func (in *groupInput) row(k int) int { return int(in.sp.at(k)) }

// groupAccumVec is the vectorized accumulation: one pass assigns every
// selected row a dense group id (specialised hash maps for a single
// int or string key, byte-encoded composite keys otherwise, and no id
// array at all for the implicit single group), then each aggregate
// runs a typed loop over its argument into flat per-group accumulators
// — no per-row boxing, no per-row closure calls.
func groupAccumVec(ws *rowset, groupBy []Expr, aggCalls []FuncCall) (map[string]*aggGroup, []string, bool, error) {
	vc := &vecCompiler{b: ws.batch, rs: ws.rs}
	sp := ws.span()
	n := sp.len()
	exprs := append([]Expr(nil), groupBy...)
	for _, fc := range aggCalls {
		if fc.Star {
			exprs = append(exprs, nil) // COUNT(*): no argument
		} else {
			exprs = append(exprs, fc.Args[0])
		}
	}
	// Compile every input before evaluating any, so a plan the
	// vectorizer refuses reaches the row path without having run.
	inputs := make([]*groupInput, len(exprs))
	evs := make([]*vecExpr, len(exprs))
	for i, e := range exprs {
		if e == nil {
			continue
		}
		if col, ok := vc.column(e); ok {
			inputs[i] = &groupInput{col: col, sp: sp}
			continue
		}
		ev, ok := vc.compile(e)
		if !ok {
			return nil, nil, false, nil
		}
		evs[i] = &ev
	}
	for i, ev := range evs {
		if ev != nil {
			var v vec
			if err := ev.eval(sp, &v); err != nil {
				return nil, nil, false, err
			}
			inputs[i] = &groupInput{col: v.colVec(), sp: span{hi: n}}
		}
	}
	keys, args := inputs[:len(groupBy)], inputs[len(groupBy):]

	// Phase 1: assign each selected row a dense group id.
	var glist []*aggGroup
	var gkeys []string
	newGroup := func(k int) int32 {
		var buf []byte
		for _, in := range keys {
			buf = appendGroupKey(buf, in.col, in.row(k))
		}
		glist = append(glist, newAggGroup(ws.batch.Row(int(sp.at(k))), aggCalls))
		gkeys = append(gkeys, string(buf))
		return int32(len(glist) - 1)
	}
	var gids []int32 // nil: every row is in group 0
	switch {
	case len(keys) == 0:
		if n > 0 {
			newGroup(0)
		}
	case len(keys) == 1 && keys[0].col.Kind == engine.TypeInt:
		gids = groupIDs(keys[0], keys[0].col.Ints, n, newGroup)
	case len(keys) == 1 && keys[0].col.Kind == engine.TypeString:
		gids = groupIDs(keys[0], keys[0].col.Strs, n, newGroup)
	default:
		gids = make([]int32, n)
		m := make(map[string]int32, 64)
		var buf []byte
		for k := 0; k < n; k++ {
			buf = buf[:0]
			for _, in := range keys {
				buf = appendGroupKey(buf, in.col, in.row(k))
			}
			gid, ok := m[string(buf)]
			if !ok {
				gid = newGroup(k)
				m[string(buf)] = gid
			}
			gids[k] = gid
		}
	}

	// Phase 2: typed accumulation per aggregate.
	for i, fc := range aggCalls {
		accumAggVec(glist, gids, n, i, fc, args[i])
	}

	groups := make(map[string]*aggGroup, len(glist))
	for g, key := range gkeys {
		groups[key] = glist[g]
	}
	return groups, gkeys, true, nil
}

// groupIDs assigns dense group ids over one typed key column; NULL keys
// share one group, as on the row path.
func groupIDs[T int64 | string](in *groupInput, vals []T, n int, newGroup func(k int) int32) []int32 {
	gids := make([]int32, n)
	m := make(map[T]int32, 64)
	nullGid := int32(-1)
	for k := 0; k < n; k++ {
		i := in.row(k)
		if in.col.Nulls.Get(i) {
			if nullGid < 0 {
				nullGid = newGroup(k)
			}
			gids[k] = nullGid
			continue
		}
		gid, ok := m[vals[i]]
		if !ok {
			gid = newGroup(k)
			m[vals[i]] = gid
		}
		gids[k] = gid
	}
	return gids
}

// groupOf returns the group of the k-th row; nil gids is the implicit
// single group.
func groupOf(gids []int32, k int) int32 {
	if gids == nil {
		return 0
	}
	return gids[k]
}

// aggFold is the flat per-group state of one aggregate being folded.
type aggFold struct {
	counts       []int64
	sums, sumSqs []float64
	has          []bool
}

func newAggFold(ng int) *aggFold {
	return &aggFold{counts: make([]int64, ng), sums: make([]float64, ng), sumSqs: make([]float64, ng), has: make([]bool, ng)}
}

// accumAggVec folds one aggregate's argument into its per-group states
// through flat typed accumulator arrays, boxing at most once per group
// (for MIN/MAX results) instead of once per row.
func accumAggVec(glist []*aggGroup, gids []int32, n, agg int, fc FuncCall, in *groupInput) {
	ng := len(glist)
	if in == nil { // COUNT(*)
		if gids == nil {
			if n > 0 {
				glist[0].aggs[agg].count += int64(n)
			}
			return
		}
		counts := make([]int64, ng)
		for _, gid := range gids {
			counts[gid]++
		}
		for g, c := range counts {
			glist[g].aggs[agg].count += c
		}
		return
	}
	kind := in.col.Kind
	if fc.Distinct || (kind != engine.TypeInt && kind != engine.TypeFloat && kind != engine.TypeString) {
		// DISTINCT needs the per-value de-dup map; exotic kinds keep the
		// reference semantics of aggState.add.
		for k := 0; k < n; k++ {
			glist[groupOf(gids, k)].aggs[agg].add(in.col.Value(in.row(k)))
		}
		return
	}
	st := newAggFold(ng)
	switch kind {
	case engine.TypeInt:
		mins, maxs := foldNumeric(st, in, in.col.Ints, gids, n)
		finishFold(glist, agg, st, mins, maxs, engine.NewInt)
	case engine.TypeFloat:
		mins, maxs := foldNumeric(st, in, in.col.Floats, gids, n)
		finishFold(glist, agg, st, mins, maxs, engine.NewFloat)
	case engine.TypeString:
		mins, maxs := make([]string, ng), make([]string, ng)
		for k := 0; k < n; k++ {
			i := in.row(k)
			if in.col.Nulls.Get(i) {
				continue
			}
			g, v := groupOf(gids, k), in.col.Strs[i]
			// aggState sums strings through AsFloat (NaN when
			// unparsable); replicate for result parity.
			st.add(g, engine.NewString(v).AsFloat())
			foldMinMax(st, mins, maxs, g, v)
		}
		finishFold(glist, agg, st, mins, maxs, engine.NewString)
	}
}

func (st *aggFold) add(g int32, f float64) {
	st.counts[g]++
	st.sums[g] += f
	st.sumSqs[g] += f * f
}

func foldMinMax[T int64 | float64 | string](st *aggFold, mins, maxs []T, g int32, v T) {
	if !st.has[g] {
		mins[g], maxs[g], st.has[g] = v, v, true
		return
	}
	if v < mins[g] {
		mins[g] = v
	}
	if v > maxs[g] {
		maxs[g] = v
	}
}

// foldNumeric folds a numeric argument, read in place through its span.
func foldNumeric[T int64 | float64](st *aggFold, in *groupInput, vals []T, gids []int32, n int) (mins, maxs []T) {
	mins, maxs = make([]T, len(st.has)), make([]T, len(st.has))
	for k := 0; k < n; k++ {
		i := in.row(k)
		if in.col.Nulls.Get(i) {
			continue
		}
		g, v := groupOf(gids, k), vals[i]
		st.add(g, float64(v))
		foldMinMax(st, mins, maxs, g, v)
	}
	return mins, maxs
}

// finishFold writes the folded state into every group that saw a value.
func finishFold[T any](glist []*aggGroup, agg int, st *aggFold, mins, maxs []T, box func(T) engine.Value) {
	for g, ok := range st.has {
		if ok {
			a := glist[g].aggs[agg]
			a.count, a.sum, a.sumSq = st.counts[g], st.sums[g], st.sumSqs[g]
			a.min, a.max, a.hasVal = box(mins[g]), box(maxs[g]), true
		}
	}
}
