package relational

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Expression utilities used by the polystore's cross-island pushdown
// planner: rendering an Expr back to parseable SQL text (the common
// predicate dialect every island's filter operator speaks via
// CompileRowExpr), splitting predicates into AND-conjuncts, rewriting
// away table qualifiers, and walking column references.

// FormatExpr renders e as SQL text that ParseExpression parses back to
// an equivalent expression. Operands are fully parenthesised, so the
// output never depends on precedence.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	formatExpr(&sb, e)
	return sb.String()
}

func formatExpr(sb *strings.Builder, e Expr) {
	switch ex := e.(type) {
	case nil:
		sb.WriteString("NULL")
	case Literal:
		formatLiteral(sb, ex.Val)
	case ColumnRef:
		if ex.Table != "" {
			sb.WriteString(ex.Table)
			sb.WriteByte('.')
		}
		sb.WriteString(ex.Name)
	case BinaryExpr:
		sb.WriteByte('(')
		formatExpr(sb, ex.Left)
		sb.WriteByte(' ')
		sb.WriteString(ex.Op)
		sb.WriteByte(' ')
		formatExpr(sb, ex.Right)
		sb.WriteByte(')')
	case UnaryExpr:
		if ex.Op == "NOT" {
			sb.WriteString("(NOT ")
		} else {
			sb.WriteString("(" + ex.Op)
		}
		formatExpr(sb, ex.Expr)
		sb.WriteByte(')')
	case FuncCall:
		sb.WriteString(ex.Name)
		sb.WriteByte('(')
		if ex.Distinct {
			sb.WriteString("DISTINCT ")
		}
		if ex.Star {
			sb.WriteByte('*')
		}
		for i, a := range ex.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, a)
		}
		sb.WriteByte(')')
	case InExpr:
		sb.WriteByte('(')
		formatExpr(sb, ex.Expr)
		if ex.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, a := range ex.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, a)
		}
		sb.WriteString("))")
	case IsNullExpr:
		sb.WriteByte('(')
		formatExpr(sb, ex.Expr)
		sb.WriteString(" IS ")
		if ex.Not {
			sb.WriteString("NOT ")
		}
		sb.WriteString("NULL)")
	case BetweenExpr:
		sb.WriteByte('(')
		formatExpr(sb, ex.Expr)
		if ex.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		formatExpr(sb, ex.Lo)
		sb.WriteString(" AND ")
		formatExpr(sb, ex.Hi)
		sb.WriteByte(')')
	default:
		fmt.Fprintf(sb, "%#v", e)
	}
}

func formatLiteral(sb *strings.Builder, v engine.Value) {
	switch v.Kind {
	case engine.TypeNull:
		sb.WriteString("NULL")
	case engine.TypeInt:
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case engine.TypeFloat:
		// NaN/Inf have no literal syntax; they also cannot be produced by
		// the parser, so this path only defends direct AST construction.
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			sb.WriteString("NULL")
			return
		}
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the literal FLOAT-kinded on reparse
		}
		sb.WriteString(s)
	case engine.TypeString:
		sb.WriteByte('\'')
		sb.WriteString(strings.ReplaceAll(v.S, "'", "''"))
		sb.WriteByte('\'')
	case engine.TypeBool:
		if v.B {
			sb.WriteString("TRUE")
		} else {
			sb.WriteString("FALSE")
		}
	default:
		sb.WriteString("NULL")
	}
}

// SplitConjuncts flattens nested top-level ANDs into the list of
// conjuncts; a non-AND expression returns as a single conjunct.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(BinaryExpr); ok && be.Op == "AND" {
		return append(SplitConjuncts(be.Left), SplitConjuncts(be.Right)...)
	}
	return []Expr{e}
}

// StripQualifiers returns a copy of e with every column reference's
// table qualifier removed, for evaluation against an unqualified schema
// (a source engine's own column list).
func StripQualifiers(e Expr) Expr {
	switch ex := e.(type) {
	case ColumnRef:
		return ColumnRef{Name: ex.Name}
	case BinaryExpr:
		return BinaryExpr{Op: ex.Op, Left: StripQualifiers(ex.Left), Right: StripQualifiers(ex.Right)}
	case UnaryExpr:
		return UnaryExpr{Op: ex.Op, Expr: StripQualifiers(ex.Expr)}
	case FuncCall:
		args := make([]Expr, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = StripQualifiers(a)
		}
		return FuncCall{Name: ex.Name, Args: args, Star: ex.Star, Distinct: ex.Distinct}
	case InExpr:
		list := make([]Expr, len(ex.List))
		for i, a := range ex.List {
			list[i] = StripQualifiers(a)
		}
		return InExpr{Expr: StripQualifiers(ex.Expr), List: list, Not: ex.Not}
	case IsNullExpr:
		return IsNullExpr{Expr: StripQualifiers(ex.Expr), Not: ex.Not}
	case BetweenExpr:
		return BetweenExpr{Expr: StripQualifiers(ex.Expr), Lo: StripQualifiers(ex.Lo), Hi: StripQualifiers(ex.Hi), Not: ex.Not}
	default:
		return e
	}
}

// WalkColumnRefs calls fn for every column reference in e.
func WalkColumnRefs(e Expr, fn func(ColumnRef)) {
	switch ex := e.(type) {
	case ColumnRef:
		fn(ex)
	case BinaryExpr:
		WalkColumnRefs(ex.Left, fn)
		WalkColumnRefs(ex.Right, fn)
	case UnaryExpr:
		WalkColumnRefs(ex.Expr, fn)
	case FuncCall:
		for _, a := range ex.Args {
			WalkColumnRefs(a, fn)
		}
	case InExpr:
		WalkColumnRefs(ex.Expr, fn)
		for _, a := range ex.List {
			WalkColumnRefs(a, fn)
		}
	case IsNullExpr:
		WalkColumnRefs(ex.Expr, fn)
	case BetweenExpr:
		WalkColumnRefs(ex.Expr, fn)
		WalkColumnRefs(ex.Lo, fn)
		WalkColumnRefs(ex.Hi, fn)
	}
}

// ErrorFree reports whether the expression can be evaluated on any row
// without raising an error. WHERE evaluation short-circuits (a guard
// like `d <> 0 AND 10/d > 1` protects the division), so any rewrite
// that evaluates an expression on rows the original would not have —
// a pushed-down or pre-join filter, an AND evaluated as two
// selections — is sound only when nothing it reorders can error:
// division, modulo and scalar function calls are excluded.
func ErrorFree(e Expr) bool {
	switch ex := e.(type) {
	case Literal, ColumnRef, nil:
		return true
	case BinaryExpr:
		if ex.Op == "/" || ex.Op == "%" {
			return false
		}
		return ErrorFree(ex.Left) && ErrorFree(ex.Right)
	case UnaryExpr:
		return ErrorFree(ex.Expr)
	case InExpr:
		if !ErrorFree(ex.Expr) {
			return false
		}
		for _, a := range ex.List {
			if !ErrorFree(a) {
				return false
			}
		}
		return true
	case IsNullExpr:
		return ErrorFree(ex.Expr)
	case BetweenExpr:
		return ErrorFree(ex.Expr) && ErrorFree(ex.Lo) && ErrorFree(ex.Hi)
	default:
		return false // FuncCall and anything unknown
	}
}

// SplitBelowJoin is the one rule for which WHERE conjuncts may filter
// input target of a join (0 is the FROM table, k is joins[k-1]) before
// the joins run: the executor's pre-join filter and core's CAST
// pushdown both use it. A conjunct moves (below) when owns accepts
// every column reference it reads; the rest stay (above). Nothing moves
// when the target is the padded side of a LEFT JOIN, when any WHERE
// conjunct or ON clause can error — a filtered input would hide an
// error they raise on a removed row — or when owns reports a reference
// that does not resolve, so a bad name still errors where it always did.
func SplitBelowJoin(where Expr, joins []Join, target int, owns func(ColumnRef) (mine, resolves bool)) (below, above []Expr) {
	conj := SplitConjuncts(where)
	if target > 0 && joins[target-1].Kind == JoinLeft {
		return nil, conj
	}
	for _, j := range joins {
		if j.On != nil && !ErrorFree(j.On) {
			return nil, conj
		}
	}
	for _, c := range conj {
		if !ErrorFree(c) {
			return nil, conj
		}
	}
	for _, c := range conj {
		mineAll, resolvesAll := true, true
		WalkColumnRefs(c, func(cr ColumnRef) {
			mine, resolves := owns(cr)
			mineAll, resolvesAll = mineAll && mine, resolvesAll && resolves
		})
		if !resolvesAll {
			return nil, conj
		}
		if mineAll {
			below = append(below, c)
		} else {
			above = append(above, c)
		}
	}
	return below, above
}

// HasAggregate reports whether the expression contains an aggregate
// function call (which a per-row pushdown predicate can never contain).
func HasAggregate(e Expr) bool { return hasAggregate(e) }

// ItemName reports the output column name the executor derives for a
// projection item: the alias if present, a bare column reference's own
// name, else the expression's canonical key. Scatter-gather uses it to
// restore baseline column names on merged shard results.
func ItemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(ColumnRef); ok {
		return cr.Name
	}
	return exprKey(item.Expr)
}
