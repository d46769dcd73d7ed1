package relational

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Vectorized executor kernels. The row-at-a-time executor in exec.go
// interprets one compiled closure tree per row; the kernels here compile
// the same Expr tree once into batch operators that run tight typed
// loops over ColumnBatch vectors, driven by a span of rows (a selection
// vector of surviving row indices, or a dense range). Plans the compiler
// cannot express — scalar function calls, mixed-type (generic) columns,
// exotic comparisons — report !ok and the executor falls back to the row
// path, so vectorization is always a pure optimisation, never a
// semantics change.

// parallelScanRows is the batch cardinality at which base-table scans
// and filters partition across workers (worker-per-chunk, merged in
// selection order at the end).
const parallelScanRows = 1 << 15

// filterBlock is how many rows a filter handles per call: the output
// selection grows ahead of each block, and the bool vectors of
// evalFilter stay block-sized instead of table-sized.
const filterBlock = 1 << 10

// span is the set of rows an operator visits: the selection sel when it
// is non-nil, else every row of the dense range [lo, hi). A nil
// selection means "all rows" everywhere in the executor, so no stage
// materialises the identity selection; an empty non-nil selection keeps
// no rows.
type span struct {
	sel    []int32
	lo, hi int
}

func (sp span) len() int {
	if sp.sel != nil {
		return len(sp.sel)
	}
	return sp.hi - sp.lo
}

// at returns the row index of the k-th row of the span.
func (sp span) at(k int) int32 {
	if sp.sel != nil {
		return sp.sel[k]
	}
	return int32(sp.lo + k)
}

// slice returns rows [a, b) of the span, by position.
func (sp span) slice(a, b int) span {
	if sp.sel != nil {
		return span{sel: sp.sel[a:b]}
	}
	return span{lo: sp.lo + a, hi: sp.lo + b}
}

// vec is one intermediate result vector, dense over the current span:
// entry k holds the value for row sp.at(k). null[k] marks SQL NULL
// (three-valued logic propagates it through every kernel).
type vec struct {
	kind   engine.Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	null   []bool
}

// reset prepares the vector for n results of the given kind. null and
// bools are zeroed (the short-circuiting AND kernel relies on skipped
// rows reading false); ints/floats/strs buffers come back dirty, so
// every kernel must write all selected entries of those.
func (v *vec) reset(kind engine.Type, n int) {
	v.kind = kind
	if cap(v.null) < n {
		v.null = make([]bool, n)
	} else {
		v.null = v.null[:n]
		clear(v.null)
	}
	switch kind {
	case engine.TypeInt:
		if cap(v.ints) < n {
			v.ints = make([]int64, n)
		} else {
			v.ints = v.ints[:n]
		}
	case engine.TypeFloat:
		if cap(v.floats) < n {
			v.floats = make([]float64, n)
		} else {
			v.floats = v.floats[:n]
		}
	case engine.TypeString:
		if cap(v.strs) < n {
			v.strs = make([]string, n)
		} else {
			v.strs = v.strs[:n]
		}
	case engine.TypeBool:
		if cap(v.bools) < n {
			v.bools = make([]bool, n)
		} else {
			v.bools = v.bools[:n]
			clear(v.bools)
		}
	}
}

// valueAt boxes entry k.
func (v *vec) valueAt(k int) engine.Value {
	if v.null[k] {
		return engine.Null
	}
	switch v.kind {
	case engine.TypeInt:
		return engine.NewInt(v.ints[k])
	case engine.TypeFloat:
		return engine.NewFloat(v.floats[k])
	case engine.TypeString:
		return engine.NewString(v.strs[k])
	default:
		return engine.NewBool(v.bools[k])
	}
}

// floatAt reads entry k as float64; valid for numeric vecs only.
func (v *vec) floatAt(k int) float64 {
	if v.kind == engine.TypeInt {
		return float64(v.ints[k])
	}
	return v.floats[k]
}

// colVec views the vector as a column vector (its typed slice shared,
// its null flags as a bitmap), so grouping reads kernel results and
// cached columns the same way.
func (v *vec) colVec() *engine.ColVec {
	c := &engine.ColVec{Kind: v.kind, Ints: v.ints, Floats: v.floats, Strs: v.strs, Bools: v.bools}
	for k, isNull := range v.null {
		if isNull {
			c.Nulls.Set(k)
		}
	}
	return c
}

// appendGroupKey appends a canonical byte encoding of row i of c, used
// to build composite GROUP BY hash keys without boxing.
func appendGroupKey(buf []byte, c *engine.ColVec, i int) []byte {
	if c.Nulls.Get(i) {
		return append(buf, 0)
	}
	switch c.Kind {
	case engine.TypeInt:
		buf = append(buf, 1)
		return binary.AppendVarint(buf, c.Ints[i])
	case engine.TypeFloat:
		buf = append(buf, 2)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Floats[i]))
	case engine.TypeString:
		buf = append(buf, 3)
		buf = binary.AppendUvarint(buf, uint64(len(c.Strs[i])))
		return append(buf, c.Strs[i]...)
	default:
		if c.Bools[i] {
			return append(buf, 5)
		}
		return append(buf, 4)
	}
}

// vecExpr is a compiled vectorized expression: a statically known result
// kind plus an evaluator. Evaluators are reentrant (no captured mutable
// state) so chunked scans may share one compiled tree across workers.
type vecExpr struct {
	kind engine.Type
	eval func(sp span, out *vec) error
}

// vecCompiler compiles Expr trees against one specific batch.
type vecCompiler struct {
	b  *engine.ColumnBatch
	rs rowSchema
}

func isNumericKind(t engine.Type) bool { return t == engine.TypeInt || t == engine.TypeFloat }

func comparableKinds(a, b engine.Type) bool {
	if isNumericKind(a) && isNumericKind(b) {
		return true
	}
	return a == engine.TypeString && b == engine.TypeString
}

// column resolves a column reference to its typed batch vector; ok is
// false for anything else, unresolvable names and generic (mixed-kind)
// columns.
func (vc *vecCompiler) column(e Expr) (*engine.ColVec, bool) {
	cr, isCol := e.(ColumnRef)
	if !isCol {
		return nil, false
	}
	idx, err := vc.rs.resolve(cr.Table, cr.Name)
	if err != nil || idx >= len(vc.b.Cols) || vc.b.Cols[idx].Kind == engine.TypeNull {
		return nil, false
	}
	return &vc.b.Cols[idx], true
}

// compile returns the vectorized form of e, or ok=false when e (or a
// subexpression) is outside the vectorizable subset.
func (vc *vecCompiler) compile(e Expr) (vecExpr, bool) {
	switch ex := e.(type) {
	case Literal:
		return vc.compileLiteral(ex.Val)
	case ColumnRef:
		col, ok := vc.column(ex)
		if !ok {
			return vecExpr{}, false
		}
		return compileColumn(col), true
	case UnaryExpr:
		inner, ok := vc.compile(ex.Expr)
		if !ok {
			return vecExpr{}, false
		}
		switch ex.Op {
		case "-":
			if !isNumericKind(inner.kind) {
				return vecExpr{}, false
			}
			kind := inner.kind
			return vecExpr{kind: kind, eval: func(sp span, out *vec) error {
				var in vec
				if err := inner.eval(sp, &in); err != nil {
					return err
				}
				out.reset(kind, sp.len())
				copy(out.null, in.null)
				if kind == engine.TypeInt {
					for k := range in.ints {
						out.ints[k] = -in.ints[k]
					}
				} else {
					for k := range in.floats {
						out.floats[k] = -in.floats[k]
					}
				}
				return nil
			}}, true
		case "NOT":
			if inner.kind != engine.TypeBool {
				return vecExpr{}, false
			}
			return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
				var in vec
				if err := inner.eval(sp, &in); err != nil {
					return err
				}
				out.reset(engine.TypeBool, sp.len())
				copy(out.null, in.null)
				for k := range in.bools {
					out.bools[k] = !in.bools[k]
				}
				return nil
			}}, true
		default:
			return vecExpr{}, false
		}
	case BinaryExpr:
		return vc.compileBinary(ex)
	case IsNullExpr:
		inner, ok := vc.compile(ex.Expr)
		if !ok {
			return vecExpr{}, false
		}
		not := ex.Not
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var in vec
			if err := inner.eval(sp, &in); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			for k := range in.null {
				out.bools[k] = in.null[k] != not
			}
			return nil
		}}, true
	case BetweenExpr:
		return vc.compileBetween(ex)
	case InExpr:
		return vc.compileIn(ex)
	default:
		// FuncCall (scalar and aggregate) and anything unknown: row path.
		return vecExpr{}, false
	}
}

func (vc *vecCompiler) compileLiteral(v engine.Value) (vecExpr, bool) {
	kind := v.Kind
	switch kind {
	case engine.TypeInt, engine.TypeFloat, engine.TypeString, engine.TypeBool:
	default:
		return vecExpr{}, false
	}
	return vecExpr{kind: kind, eval: func(sp span, out *vec) error {
		out.reset(kind, sp.len())
		switch kind {
		case engine.TypeInt:
			for k := range out.ints {
				out.ints[k] = v.I
			}
		case engine.TypeFloat:
			for k := range out.floats {
				out.floats[k] = v.F
			}
		case engine.TypeString:
			for k := range out.strs {
				out.strs[k] = v.S
			}
		case engine.TypeBool:
			for k := range out.bools {
				out.bools[k] = v.B
			}
		}
		return nil
	}}, true
}

// gatherSpan copies the values of src at the rows of sp into dst.
func gatherSpan[T any](dst, src []T, sp span) {
	if sp.sel == nil {
		copy(dst, src[sp.lo:sp.hi])
		return
	}
	for k, i := range sp.sel {
		dst[k] = src[i]
	}
}

func compileColumn(col *engine.ColVec) vecExpr {
	kind := col.Kind
	return vecExpr{kind: kind, eval: func(sp span, out *vec) error {
		out.reset(kind, sp.len())
		switch kind {
		case engine.TypeInt:
			gatherSpan(out.ints, col.Ints, sp)
		case engine.TypeFloat:
			gatherSpan(out.floats, col.Floats, sp)
		case engine.TypeString:
			gatherSpan(out.strs, col.Strs, sp)
		case engine.TypeBool:
			gatherSpan(out.bools, col.Bools, sp)
		}
		if len(col.Nulls) > 0 {
			for k := range out.null {
				out.null[k] = col.Nulls.Get(int(sp.at(k)))
			}
		}
		return nil
	}}
}

// cmpHolds applies a comparison decoded by cmpOps to one pair.
func cmpHolds[T int64 | float64 | string](a, b T, test byte, neg bool) bool {
	switch test {
	case '<':
		return (a < b) != neg
	case '>':
		return (a > b) != neg
	}
	return ((a < b) != (b < a)) != neg
}

func (vc *vecCompiler) compileBinary(ex BinaryExpr) (vecExpr, bool) {
	op := ex.Op
	switch op {
	case "AND", "OR":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeBool {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeBool {
			return vecExpr{}, false
		}
		isAnd := op == "AND"
		// Like the row path, the right operand is short-circuited: it is
		// evaluated only over the rows the left side does not decide
		// (left true-or-null for AND, false-or-null for OR). This keeps
		// guarded expressions — `d <> 0 AND 10 / d > 1` — from erroring
		// on rows the guard excludes.
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var lv vec
			if err := l.eval(sp, &lv); err != nil {
				return err
			}
			n := sp.len()
			sub := make([]int32, 0, n)
			subPos := make([]int32, 0, n)
			for k := 0; k < n; k++ {
				lb, ln := lv.bools[k], lv.null[k]
				var need bool
				if isAnd {
					need = ln || lb
				} else {
					need = ln || !lb
				}
				if need {
					sub = append(sub, sp.at(k))
					subPos = append(subPos, int32(k))
				}
			}
			out.reset(engine.TypeBool, n)
			if !isAnd {
				// Rows decided by the left side alone: left-true ORs.
				for k := 0; k < n; k++ {
					out.bools[k] = !lv.null[k] && lv.bools[k]
				}
			}
			// (For AND, left-false rows keep the zeroed false.)
			if len(sub) == 0 {
				return nil
			}
			var rv vec
			if err := r.eval(span{sel: sub}, &rv); err != nil {
				return err
			}
			for m, k := range subPos {
				ln := lv.null[k]
				rb, rn := rv.bools[m], rv.null[m]
				if isAnd {
					switch {
					case !rn && !rb:
						out.bools[k] = false
						out.null[k] = false
					case ln || rn:
						out.bools[k] = false
						out.null[k] = true
					default:
						out.bools[k] = true
					}
				} else {
					switch {
					case !rn && rb:
						out.bools[k] = true
						out.null[k] = false
					case ln || rn:
						out.bools[k] = false
						out.null[k] = true
					default:
						out.bools[k] = false
					}
				}
			}
			return nil
		}}, true
	case "=", "<>", "<", "<=", ">", ">=":
		l, ok := vc.compile(ex.Left)
		if !ok {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || !comparableKinds(l.kind, r.kind) {
			return vecExpr{}, false
		}
		test, neg := cmpOps[op].test, cmpOps[op].neg
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var lv, rv vec
			if err := l.eval(sp, &lv); err != nil {
				return err
			}
			if err := r.eval(sp, &rv); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			// One loop per kind, picked once per span.
			switch {
			case lv.kind == engine.TypeInt && rv.kind == engine.TypeInt:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cmpHolds(lv.ints[k], rv.ints[k], test, neg)
				}
			case lv.kind == engine.TypeString:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cmpHolds(lv.strs[k], rv.strs[k], test, neg)
				}
			default:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cmpHolds(lv.floatAt(k), rv.floatAt(k), test, neg)
				}
			}
			return nil
		}}, true
	case "+", "-", "*", "/", "%":
		l, ok := vc.compile(ex.Left)
		if !ok || !isNumericKind(l.kind) {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || !isNumericKind(r.kind) {
			return vecExpr{}, false
		}
		bothInt := l.kind == engine.TypeInt && r.kind == engine.TypeInt
		kind := engine.TypeFloat
		if bothInt {
			kind = engine.TypeInt
		}
		return vecExpr{kind: kind, eval: func(sp span, out *vec) error {
			var lv, rv vec
			if err := l.eval(sp, &lv); err != nil {
				return err
			}
			if err := r.eval(sp, &rv); err != nil {
				return err
			}
			out.reset(kind, sp.len())
			if bothInt {
				for k := range out.ints {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					a, b := lv.ints[k], rv.ints[k]
					switch op {
					case "+":
						out.ints[k] = a + b
					case "-":
						out.ints[k] = a - b
					case "*":
						out.ints[k] = a * b
					case "/":
						if b == 0 {
							return fmt.Errorf("relational: division by zero")
						}
						out.ints[k] = a / b
					case "%":
						if b == 0 {
							return fmt.Errorf("relational: modulo by zero")
						}
						out.ints[k] = a % b
					}
				}
				return nil
			}
			for k := range out.floats {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				a, b := lv.floatAt(k), rv.floatAt(k)
				switch op {
				case "+":
					out.floats[k] = a + b
				case "-":
					out.floats[k] = a - b
				case "*":
					out.floats[k] = a * b
				case "/":
					if b == 0 {
						return fmt.Errorf("relational: division by zero")
					}
					out.floats[k] = a / b
				case "%":
					out.floats[k] = math.Mod(a, b)
				}
			}
			return nil
		}}, true
	case "LIKE":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeString {
			return vecExpr{}, false
		}
		// The common shape is a literal pattern: lower it once.
		if lit, isLit := ex.Right.(Literal); isLit && lit.Val.Kind == engine.TypeString {
			pattern := strings.ToLower(lit.Val.S)
			return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
				var lv vec
				if err := l.eval(sp, &lv); err != nil {
					return err
				}
				out.reset(engine.TypeBool, sp.len())
				for k := range out.bools {
					if lv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = likeIter(strings.ToLower(lv.strs[k]), pattern)
				}
				return nil
			}}, true
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeString {
			return vecExpr{}, false
		}
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var lv, rv vec
			if err := l.eval(sp, &lv); err != nil {
				return err
			}
			if err := r.eval(sp, &rv); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			for k := range out.bools {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				out.bools[k] = likeMatch(lv.strs[k], rv.strs[k])
			}
			return nil
		}}, true
	case "||":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeString {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeString {
			return vecExpr{}, false
		}
		return vecExpr{kind: engine.TypeString, eval: func(sp span, out *vec) error {
			var lv, rv vec
			if err := l.eval(sp, &lv); err != nil {
				return err
			}
			if err := r.eval(sp, &rv); err != nil {
				return err
			}
			out.reset(engine.TypeString, sp.len())
			for k := range out.strs {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				out.strs[k] = lv.strs[k] + rv.strs[k]
			}
			return nil
		}}, true
	default:
		return vecExpr{}, false
	}
}

func (vc *vecCompiler) compileBetween(ex BetweenExpr) (vecExpr, bool) {
	c, ok := vc.compile(ex.Expr)
	if !ok {
		return vecExpr{}, false
	}
	lo, ok := vc.compile(ex.Lo)
	if !ok || !comparableKinds(c.kind, lo.kind) {
		return vecExpr{}, false
	}
	hi, ok := vc.compile(ex.Hi)
	if !ok || !comparableKinds(c.kind, hi.kind) {
		return vecExpr{}, false
	}
	not := ex.Not
	return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
		var cv, lv, hv vec
		if err := c.eval(sp, &cv); err != nil {
			return err
		}
		if err := lo.eval(sp, &lv); err != nil {
			return err
		}
		if err := hi.eval(sp, &hv); err != nil {
			return err
		}
		out.reset(engine.TypeBool, sp.len())
		for k := range out.bools {
			if cv.null[k] {
				out.null[k] = true
				continue
			}
			if lv.null[k] || hv.null[k] {
				// Match the row path: a NULL bound still compares (NULL
				// sorts first), because the row evaluator calls
				// engine.Compare on the boxed values.
				in := engine.Compare(cv.valueAt(k), lv.valueAt(k)) >= 0 &&
					engine.Compare(cv.valueAt(k), hv.valueAt(k)) <= 0
				out.bools[k] = in != not
				continue
			}
			var in bool
			if cv.kind == engine.TypeString {
				in = cv.strs[k] >= lv.strs[k] && cv.strs[k] <= hv.strs[k]
			} else if cv.kind == engine.TypeInt && lv.kind == engine.TypeInt && hv.kind == engine.TypeInt {
				in = cv.ints[k] >= lv.ints[k] && cv.ints[k] <= hv.ints[k]
			} else {
				f := cv.floatAt(k)
				in = !(f < lv.floatAt(k)) && !(f > hv.floatAt(k))
			}
			out.bools[k] = in != not
		}
		return nil
	}}, true
}

func (vc *vecCompiler) compileIn(ex InExpr) (vecExpr, bool) {
	c, ok := vc.compile(ex.Expr)
	if !ok {
		return vecExpr{}, false
	}
	// Only literal lists vectorize. NULL literals can never compare
	// equal (the row path's engine.Equal never matches them), so they
	// are dropped.
	var lits []engine.Value
	for _, le := range ex.List {
		lit, isLit := le.(Literal)
		if !isLit {
			return vecExpr{}, false
		}
		if lit.Val.Kind == engine.TypeNull {
			continue
		}
		if !comparableKinds(c.kind, lit.Val.Kind) {
			return vecExpr{}, false
		}
		lits = append(lits, lit.Val)
	}
	not := ex.Not
	if len(lits) == 0 {
		// Every literal was NULL (or the list was empty): no value can
		// match, so the result is constant `not` for non-null inputs,
		// NULL for null inputs — same as the row path's miss case.
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var cv vec
			if err := c.eval(sp, &cv); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			for k := range out.bools {
				if cv.null[k] {
					out.null[k] = true
					continue
				}
				out.bools[k] = not
			}
			return nil
		}}, true
	}
	if c.kind == engine.TypeString {
		set := make(map[string]bool, len(lits))
		for _, v := range lits {
			set[v.S] = true
		}
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var cv vec
			if err := c.eval(sp, &cv); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			for k := range out.bools {
				if cv.null[k] {
					out.null[k] = true
					continue
				}
				out.bools[k] = set[cv.strs[k]] != not
			}
			return nil
		}}, true
	}
	allInt := c.kind == engine.TypeInt
	for _, v := range lits {
		if v.Kind != engine.TypeInt {
			allInt = false
		}
	}
	if allInt {
		set := make(map[int64]bool, len(lits))
		for _, v := range lits {
			set[v.I] = true
		}
		return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
			var cv vec
			if err := c.eval(sp, &cv); err != nil {
				return err
			}
			out.reset(engine.TypeBool, sp.len())
			for k := range out.bools {
				if cv.null[k] {
					out.null[k] = true
					continue
				}
				out.bools[k] = set[cv.ints[k]] != not
			}
			return nil
		}}, true
	}
	floats := make([]float64, len(lits))
	for i, v := range lits {
		floats[i] = v.AsFloat()
	}
	return vecExpr{kind: engine.TypeBool, eval: func(sp span, out *vec) error {
		var cv vec
		if err := c.eval(sp, &cv); err != nil {
			return err
		}
		out.reset(engine.TypeBool, sp.len())
		for k := range out.bools {
			if cv.null[k] {
				out.null[k] = true
				continue
			}
			f := cv.floatAt(k)
			found := false
			for _, lf := range floats {
				if !(f < lf) && !(f > lf) {
					found = true
					break
				}
			}
			out.bools[k] = found != not
		}
		return nil
	}}, true
}

// ---------- selection kernels ----------

// selFilter appends the rows of sp that satisfy a WHERE predicate to
// out, in order. out's spare capacity may be the very memory sp.sel
// lives in (AND composes in place), so every filter reads row k of sp
// before it writes output position k or later — never earlier rows.
type selFilter func(sp span, out []int32) ([]int32, error)

// compileFilter compiles a boolean WHERE expression to a selection
// filter. A column compared with constants runs as a selection kernel
// (compileKernel); AND composes its sides' selections — the right side
// filters the left's survivors in place — when the right side cannot
// error, so the row path's short-circuit never hides an error there;
// every other boolean expression the vectorizer compiles runs through
// evalFilter. ok=false sends the predicate to the row path.
func (vc *vecCompiler) compileFilter(e Expr) (selFilter, bool) {
	if be, isBin := e.(BinaryExpr); isBin && be.Op == "AND" && ErrorFree(be.Right) {
		l, ok := vc.compileFilter(be.Left)
		if !ok {
			return nil, false
		}
		r, ok := vc.compileFilter(be.Right)
		if !ok {
			return nil, false
		}
		return func(sp span, out []int32) ([]int32, error) {
			start := len(out)
			out, err := l(sp, out)
			if err != nil {
				return nil, err
			}
			return r(span{sel: out[start:]}, out[:start])
		}, true
	}
	if k, ok := vc.compileKernel(e); ok {
		return k, true
	}
	pred, ok := vc.compile(e)
	if !ok || pred.kind != engine.TypeBool {
		return nil, false
	}
	return evalFilter(pred), true
}

// evalFilter is the eval-then-compact adapter: it evaluates a boolean
// kernel over sp into a bool vector and keeps the rows that are true.
func evalFilter(pred vecExpr) selFilter {
	return func(sp span, out []int32) ([]int32, error) {
		var v vec
		if err := pred.eval(sp, &v); err != nil {
			return nil, err
		}
		for k, b := range v.bools {
			if b && !v.null[k] {
				out = append(out, sp.at(k))
			}
		}
		return out, nil
	}
}

// cmpOps reduces each comparison to one primitive test and a negation,
// the way engine.Compare orders values: a >= b is ¬(a < b), a <= b is
// ¬(a > b), a = b is ¬(a < b ∨ a > b). So a NaN compares equal to
// everything, on the row path and in every kernel.
var cmpOps = map[string]struct {
	test byte // '<', '>' or '!' (a < b ∨ a > b)
	neg  bool
}{
	"<": {'<', false}, ">=": {'<', true},
	">": {'>', false}, "<=": {'>', true},
	"<>": {'!', false}, "=": {'!', true},
}

// flipOp rewrites `c OP v` as `v flipOp[OP] c`.
var flipOp = map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}

// kernelConst converts a literal to the kind of the column it is
// compared with, under the row path's numeric promotion: an INT or
// FLOAT literal against a FLOAT column compares as float64, an INT
// literal against an INT column and a string against a string as
// themselves. An INT column against a FLOAT literal (float64 of the
// column, not an int64 comparison) is left to evalFilter.
func kernelConst(kind engine.Type, e Expr) (engine.Value, bool) {
	lit, isLit := e.(Literal)
	if !isLit {
		return engine.Null, false
	}
	v := lit.Val
	switch {
	case kind == engine.TypeInt && v.Kind == engine.TypeInt, kind == engine.TypeString && v.Kind == engine.TypeString:
		return v, true
	case kind == engine.TypeFloat && isNumericKind(v.Kind):
		return engine.NewFloat(v.AsFloat()), true
	}
	return engine.Null, false
}

// compileKernel matches the WHERE leaves that compile to selection
// kernels: a typed column compared with a constant (=, <>, <, <=, >, >=,
// the literal on either side), BETWEEN constant bounds, and IN a
// literal list. A kernel reads the cached column in place through the
// span, appends the surviving row indices and drops NULL rows — no
// literal broadcast, no column copy, no bool or null vectors.
func (vc *vecCompiler) compileKernel(e Expr) (selFilter, bool) {
	var col *engine.ColVec
	var k selFilter
	var ok bool
	switch ex := e.(type) {
	case BinaryExpr:
		op, colE, litE := ex.Op, ex.Left, ex.Right
		if _, isLit := colE.(Literal); isLit {
			op, colE, litE = flipOp[op], litE, colE
		}
		cmp, isCmp := cmpOps[op]
		if col, ok = vc.column(colE); !ok || !isCmp {
			return nil, false
		}
		c, cok := kernelConst(col.Kind, litE)
		if !cok {
			return nil, false
		}
		switch col.Kind {
		case engine.TypeInt:
			k = cmpKernel(col.Ints, c.I, cmp.test, cmp.neg)
		case engine.TypeFloat:
			k = cmpKernel(col.Floats, c.F, cmp.test, cmp.neg)
		default:
			k = cmpKernel(col.Strs, c.S, cmp.test, cmp.neg)
		}
	case BetweenExpr:
		if col, ok = vc.column(ex.Expr); !ok {
			return nil, false
		}
		lo, lok := kernelConst(col.Kind, ex.Lo)
		hi, hok := kernelConst(col.Kind, ex.Hi)
		if !lok || !hok {
			return nil, false
		}
		switch col.Kind {
		case engine.TypeInt:
			k = betweenKernel(col.Ints, lo.I, hi.I, ex.Not)
		case engine.TypeFloat:
			k = betweenKernel(col.Floats, lo.F, hi.F, ex.Not)
		default:
			k = betweenKernel(col.Strs, lo.S, hi.S, ex.Not)
		}
	case InExpr:
		if col, ok = vc.column(ex.Expr); !ok {
			return nil, false
		}
		var lits []engine.Value
		for _, le := range ex.List {
			if lit, isLit := le.(Literal); isLit && lit.Val.Kind == engine.TypeNull {
				continue // NULL never equals anything on the row path
			}
			v, vok := kernelConst(col.Kind, le)
			if !vok || math.IsNaN(v.F) {
				return nil, false
			}
			lits = append(lits, v)
		}
		if len(lits) == 0 {
			return nil, false
		}
		switch col.Kind {
		case engine.TypeInt:
			k = inKernel(col.Ints, lits, func(v engine.Value) int64 { return v.I }, ex.Not)
		case engine.TypeFloat:
			k = inKernel(col.Floats, lits, func(v engine.Value) float64 { return v.F }, ex.Not)
		default:
			k = inKernel(col.Strs, lits, func(v engine.Value) string { return v.S }, ex.Not)
		}
	default:
		return nil, false
	}
	if col.Nulls.Empty() {
		return k, true
	}
	// A NULL row compares NULL, which WHERE never keeps; its zero
	// placeholder may have passed the test, so drop it from the tail.
	nulls := col.Nulls
	return func(sp span, out []int32) ([]int32, error) {
		start := len(out)
		out, _ = k(sp, out) // kernels cannot fail
		kept := out[:start]
		for _, i := range out[start:] {
			if !nulls.Get(int(i)) {
				kept = append(kept, i)
			}
		}
		return kept, nil
	}, true
}

// The kernel loops below are branch-free compactions: each row index is
// written to the next output slot and the slot advances only when the
// row passes, with one loop per (kind, test) and per dense-or-selected
// span. Output capacity for the whole span is reserved first.

func cmpKernel[T int64 | float64 | string](vals []T, c T, test byte, neg bool) selFilter {
	return func(sp span, out []int32) ([]int32, error) {
		n := len(out)
		out = slices.Grow(out, sp.len())[:n+sp.len()]
		lo, sel := sp.lo, sp.sel
		switch {
		case test == '<' && sel == nil:
			for k, v := range vals[lo:sp.hi] {
				out[n] = int32(lo + k)
				if (v < c) != neg {
					n++
				}
			}
		case test == '<':
			for _, i := range sel {
				out[n] = i
				if (vals[i] < c) != neg {
					n++
				}
			}
		case test == '>' && sel == nil:
			for k, v := range vals[lo:sp.hi] {
				out[n] = int32(lo + k)
				if (v > c) != neg {
					n++
				}
			}
		case test == '>':
			for _, i := range sel {
				out[n] = i
				if (vals[i] > c) != neg {
					n++
				}
			}
		case sel == nil:
			for k, v := range vals[lo:sp.hi] {
				out[n] = int32(lo + k)
				if ((v < c) != (c < v)) != neg {
					n++
				}
			}
		default:
			for _, i := range sel {
				out[n] = i
				if v := vals[i]; ((v < c) != (c < v)) != neg {
					n++
				}
			}
		}
		return out[:n], nil
	}
}

// betweenKernel keeps lo <= v <= hi as ¬(v < lo) ∧ ¬(v > hi), the row
// path's engine.Compare test (NaN lies between any bounds there).
func betweenKernel[T int64 | float64 | string](vals []T, lo, hi T, not bool) selFilter {
	return func(sp span, out []int32) ([]int32, error) {
		n := len(out)
		out = slices.Grow(out, sp.len())[:n+sp.len()]
		if sp.sel == nil {
			for k, v := range vals[sp.lo:sp.hi] {
				out[n] = int32(sp.lo + k)
				if (!(v < lo) && !(v > hi)) != not {
					n++
				}
			}
		} else {
			for _, i := range sp.sel {
				out[n] = i
				if v := vals[i]; (!(v < lo) && !(v > hi)) != not {
					n++
				}
			}
		}
		return out[:n], nil
	}
}

// inKernel tests membership in a literal set. A NaN value equals every
// literal under engine.Compare, so it is always a member (v != v).
func inKernel[T int64 | float64 | string](vals []T, lits []engine.Value, key func(engine.Value) T, not bool) selFilter {
	set := make(map[T]struct{}, len(lits))
	for _, v := range lits {
		set[key(v)] = struct{}{}
	}
	return func(sp span, out []int32) ([]int32, error) {
		n := len(out)
		out = slices.Grow(out, sp.len())[:n+sp.len()]
		if sp.sel == nil {
			for k, v := range vals[sp.lo:sp.hi] {
				out[n] = int32(sp.lo + k)
				if _, hit := set[v]; (hit || v != v) != not {
					n++
				}
			}
		} else {
			for _, i := range sp.sel {
				out[n] = i
				v := vals[i]
				if _, hit := set[v]; (hit || v != v) != not {
					n++
				}
			}
		}
		return out[:n], nil
	}
}

// ---------- drivers ----------

// runVecFilter applies the compiled filter over sp, returning the
// surviving selection (never nil: an empty result keeps no rows). Large
// spans partition across workers; each worker filters its chunk and the
// chunks concatenate in order, so the output order matches the
// sequential scan.
func runVecFilter(f selFilter, sp span) ([]int32, error) {
	n := sp.len()
	workers := runtime.GOMAXPROCS(0)
	if n < parallelScanRows || workers < 2 {
		return filterBlocks(f, sp)
	}
	chunk := (n + workers - 1) / workers
	type part struct {
		kept []int32
		err  error
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			kept, err := filterBlocks(f, sp.slice(lo, hi))
			parts[w] = part{kept, err}
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		total += len(p.kept)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p.kept...)
	}
	return out, nil
}

// filterBlocks runs f over sp one filterBlock at a time, growing the
// output ahead of each block to the larger of double its capacity and
// the selectivity seen so far projected over the whole span (plus an
// eighth), never past the span's length — so a filter allocates in
// proportion to what it keeps rather than to what it reads. Reserving
// just a block per step (slices.Grow, i.e. append's growth) measured
// 4.3× the bytes and 2.3× the time on BenchmarkRelAnalytic/filtered_count
// (1,963 vs 458 KB/op, 854 vs 362 µs/op, -cpu 1) and broke
// TestVectorizedAllocBudget (filter_count 7.39 vs 3.74 B per scanned row).
func filterBlocks(f selFilter, sp span) ([]int32, error) {
	n := sp.len()
	out := []int32{}
	for a := 0; a < n; a += filterBlock {
		b := min(a+filterBlock, n)
		if cap(out)-len(out) < b-a {
			want := 2 * cap(out)
			if a > 0 {
				want = max(want, len(out)*n/a*9/8)
			}
			grown := make([]int32, len(out), min(want+b-a, n))
			copy(grown, out)
			out = grown
		}
		var err error
		if out, err = f(sp.slice(a, b), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------- batch hash join ----------

// vecHashJoin joins the left rows of lsp against the right batch on key
// equality (left column lIdx = right column rIdx), returning the
// combined batch. ok=false when the key columns are not joinable in
// typed form (generic columns, bools, string-vs-number), in which case
// the caller falls back to the row join.
func vecHashJoin(lb *engine.ColumnBatch, lsp span, rb *engine.ColumnBatch,
	lIdx, rIdx int, kind JoinKind, combined engine.Schema) (*engine.ColumnBatch, bool) {
	lc, rc := &lb.Cols[lIdx], &rb.Cols[rIdx]
	var lrows, rrows []int32
	left := kind == JoinLeft

	switch {
	case lc.Kind == engine.TypeInt && rc.Kind == engine.TypeInt:
		build := make(map[int64][]int32, rb.NumRows)
		for i, v := range rc.Ints {
			if !rc.Nulls.Get(i) {
				build[v] = append(build[v], int32(i))
			}
		}
		lrows, rrows = probeJoin(lsp, left, func(i int32) ([]int32, bool) {
			if lc.Nulls.Get(int(i)) {
				return nil, false
			}
			return build[lc.Ints[i]], true
		})
	case isNumericKind(lc.Kind) && isNumericKind(rc.Kind):
		// Mixed int/float keys: promote to float64, matching the row
		// path's numeric valueKey equivalence (1 joins 1.0).
		build := make(map[float64][]int32, rb.NumRows)
		for i := 0; i < rb.NumRows; i++ {
			if rc.Nulls.Get(i) {
				continue
			}
			k := colFloat(rc, i)
			build[k] = append(build[k], int32(i))
		}
		lrows, rrows = probeJoin(lsp, left, func(i int32) ([]int32, bool) {
			if lc.Nulls.Get(int(i)) {
				return nil, false
			}
			return build[colFloat(lc, int(i))], true
		})
	case lc.Kind == engine.TypeString && rc.Kind == engine.TypeString:
		build := make(map[string][]int32, rb.NumRows)
		for i, v := range rc.Strs {
			if !rc.Nulls.Get(i) {
				build[v] = append(build[v], int32(i))
			}
		}
		lrows, rrows = probeJoin(lsp, left, func(i int32) ([]int32, bool) {
			if lc.Nulls.Get(int(i)) {
				return nil, false
			}
			return build[lc.Strs[i]], true
		})
	default:
		return nil, false
	}

	out := &engine.ColumnBatch{Schema: combined, Cols: make([]engine.ColVec, len(lb.Cols)+len(rb.Cols)), NumRows: len(lrows)}
	for j := range lb.Cols {
		out.Cols[j] = gatherVec(&lb.Cols[j], lrows)
	}
	for j := range rb.Cols {
		out.Cols[len(lb.Cols)+j] = gatherVec(&rb.Cols[j], rrows)
	}
	return out, true
}

func colFloat(c *engine.ColVec, i int) float64 {
	if c.Kind == engine.TypeInt {
		return float64(c.Ints[i])
	}
	return c.Floats[i]
}

// probeJoin walks the probe side emitting (leftRow, rightRow) index
// pairs; a -1 right row marks LEFT JOIN null padding.
func probeJoin(lsp span, left bool, lookup func(i int32) ([]int32, bool)) (lrows, rrows []int32) {
	n := lsp.len()
	lrows = make([]int32, 0, n)
	rrows = make([]int32, 0, n)
	for k := 0; k < n; k++ {
		i := lsp.at(k)
		matches, _ := lookup(i)
		if len(matches) == 0 {
			if left {
				lrows = append(lrows, i)
				rrows = append(rrows, -1)
			}
			continue
		}
		for _, r := range matches {
			lrows = append(lrows, i)
			rrows = append(rrows, r)
		}
	}
	return lrows, rrows
}

// gatherVec materialises src at the given row indices; -1 gathers NULL.
func gatherVec(src *engine.ColVec, rows []int32) engine.ColVec {
	out := engine.ColVec{Kind: src.Kind}
	if src.Kind == engine.TypeNull {
		out.Any = make([]engine.Value, len(rows))
		for k, r := range rows {
			if r < 0 {
				out.Any[k] = engine.Null
			} else {
				out.Any[k] = src.Any[r]
			}
		}
		return out
	}
	setNull := func(k int, r int32) bool {
		if r < 0 || src.Nulls.Get(int(r)) {
			out.Nulls.Set(k)
			return true
		}
		return false
	}
	switch src.Kind {
	case engine.TypeInt:
		out.Ints = make([]int64, len(rows))
		for k, r := range rows {
			if !setNull(k, r) {
				out.Ints[k] = src.Ints[r]
			}
		}
	case engine.TypeFloat:
		out.Floats = make([]float64, len(rows))
		for k, r := range rows {
			if !setNull(k, r) {
				out.Floats[k] = src.Floats[r]
			}
		}
	case engine.TypeString:
		out.Strs = make([]string, len(rows))
		for k, r := range rows {
			if !setNull(k, r) {
				out.Strs[k] = src.Strs[r]
			}
		}
	case engine.TypeBool:
		out.Bools = make([]bool, len(rows))
		for k, r := range rows {
			if !setNull(k, r) {
				out.Bools[k] = src.Bools[r]
			}
		}
	}
	return out
}

// materializeRows boxes the selected batch rows into tuples, carving
// them from one arena (the bridge from the vectorized pipeline back to
// the row-at-a-time fallback).
func materializeRows(b *engine.ColumnBatch, sel []int32) []engine.Tuple {
	if sel == nil {
		return b.ToRelation().Tuples
	}
	ncols := len(b.Cols)
	rows := make([]engine.Tuple, len(sel))
	arena := make([]engine.Value, len(sel)*ncols)
	for k := range sel {
		rows[k] = engine.Tuple(arena[k*ncols : (k+1)*ncols : (k+1)*ncols])
	}
	for j := range b.Cols {
		c := &b.Cols[j]
		for k, i := range sel {
			arena[k*ncols+j] = c.Value(int(i))
		}
	}
	return rows
}
