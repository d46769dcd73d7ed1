package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/relational"
)

// The cross-island CAST pushdown planner. resolveCasts (islands.go)
// migrates every CAST source wholesale and lets the island body filter
// and project afterwards; the planner here rewrites the query *before*
// migration so the CAST moves only the rows and columns the body can
// observe:
//
//	RELATIONAL/POSTGRES — the body's WHERE conjuncts that reference only
//	    the cast object translate into a source-side predicate, and the
//	    set of referenced columns becomes a source-side projection.
//	ARRAY/SCIDB — filter(CAST(x, array), cond) pushes cond into the
//	    migration; the source evaluates it natively (relational sources
//	    on the vectorized column kernels, array sources via filter()).
//	TEXT — scan(CAST(x, text), 'lo', 'hi') and get(CAST(x, text), 'r')
//	    push the row range down as a predicate on the row-key column.
//
// Pushdown is a strict pre-filter: the island body still applies its
// own predicate to the migrated copy, so every pushed conjunct must be
// row-deterministic and evaluable at the source without changing
// semantics — the analysis below refuses anything else and falls back
// to full migration. Polystore.SetPushdown(false) disables the planner
// entirely (the randomized equivalence harness diffs the two paths).

// maxCastsPerQuery bounds CAST terms per body.
const maxCastsPerQuery = 32

// prepareBody resolves the CAST terms of an island body, with pushdown
// when the planner understands the island's dialect. It returns the
// rewritten body plus the temp object names minted along the way; the
// caller must drop them once the query completes (temps are returned
// even alongside an error, so partial work is still reclaimed).
func (p *Polystore) prepareBody(ctx context.Context, island Island, body string) (string, []string, error) {
	if !p.pushdownOn() {
		return p.resolveCasts(ctx, body)
	}
	switch island {
	case IslandRelational, IslandPostgres:
		return p.planRelational(ctx, body)
	case IslandArray, IslandSciDB:
		return p.planArray(ctx, body)
	case IslandAccumulo:
		return p.planText(ctx, body)
	default:
		return p.resolveCasts(ctx, body)
	}
}

// pendingCast is one CAST term lifted out of a body, awaiting
// execution under a minted placeholder name.
type pendingCast struct {
	placeholder string
	src         string // named object, or a nested island query
	target      EngineKind
	nested      bool
	nestedRel   *engine.Relation // nested source, already executed
	schema      engine.Schema    // source schema (pre-projection)
	known       bool
}

// extractCasts rewrites every CAST(src, target) in body to a fresh
// placeholder identifier, returning the rewritten body and the pending
// casts. Nested island-query sources are executed here (their schema is
// needed for analysis and they must run exactly once). At most budget
// terms lift; one more is an error.
func (p *Polystore) extractCasts(ctx context.Context, body string, budget int) (string, []*pendingCast, error) {
	var pend []*pendingCast
	from := 0
	for {
		start, end, ok := findCall(body, "CAST", from)
		if !ok {
			return body, pend, nil
		}
		if len(pend) >= budget {
			// Error before touching the over-limit term: its source may be
			// a nested island query, which a rejected statement must not run.
			return body, pend, fmt.Errorf("core: too many nested CASTs")
		}
		inner := body[start+len("CAST(") : end-1]
		args := splitTopArgs(inner)
		if len(args) != 2 {
			return body, pend, fmt.Errorf("core: CAST takes (object, target), got %q", inner)
		}
		target, err := castTargetEngine(args[1])
		if err != nil {
			return body, pend, err
		}
		pc := &pendingCast{placeholder: p.tempName("cast"), target: target, src: strings.TrimSpace(args[0])}
		if looksLikeIslandQuery(pc.src) {
			rel, err := p.QueryCtx(ctx, pc.src)
			if err != nil {
				return body, pend, err
			}
			pc.nested, pc.nestedRel, pc.schema, pc.known = true, rel, rel.Schema, true
		} else if info, ok := p.Lookup(pc.src); ok {
			pc.schema, pc.known = p.objectSchema(info)
		}
		pend = append(pend, pc)
		body = body[:start] + pc.placeholder + body[end:]
		from = start + len(pc.placeholder)
	}
}

// runCast executes one pending cast with the given pushdown options,
// registering the copy under the placeholder. It returns the temp name
// for cleanup (minted regardless of success, so callers always reclaim).
func (p *Polystore) runCast(ctx context.Context, pc *pendingCast, opts CastOptions) (string, error) {
	opts.TargetName = pc.placeholder
	if !pc.nested {
		_, err := p.CastCtx(ctx, pc.src, pc.target, opts)
		return pc.placeholder, err
	}
	// Nested sources only ever carry pushdown into relation-shaped
	// targets (see planRelational), where raw-row filtering is faithful.
	rel, err := filterProjectRelation(pc.nestedRel, opts.Predicate, opts.Columns)
	if err != nil {
		return pc.placeholder, err
	}
	if err := p.LoadCtx(ctx, pc.target, pc.placeholder, rel, CastOptions{Dense: opts.Dense}); err != nil {
		return pc.placeholder, err
	}
	p.countCast(rel != pc.nestedRel) // nested casts count in CastStats too
	return pc.placeholder, nil
}

// ---------- RELATIONAL / POSTGRES island ----------

// planRelational plans CAST pushdown for a SQL body: extract the CAST
// terms, parse the rewritten statement, and derive a per-cast predicate
// and projection from the SELECT's own clauses. Bodies the planner
// cannot analyse (DML, parse errors) migrate their casts in full.
func (p *Polystore) planRelational(ctx context.Context, body string) (string, []string, error) {
	if _, _, ok := findCall(body, "CAST", 0); !ok {
		return body, nil, nil // no CASTs; shims get their own pushdown
	}
	rewritten, pend, err := p.extractCasts(ctx, body, maxCastsPerQuery)
	var temps []string
	if err != nil {
		return rewritten, temps, err
	}
	var sel *relational.Select
	if stmt, perr := relational.Parse(rewritten); perr == nil {
		sel, _ = stmt.(*relational.Select)
	}
	var tables []pdTable
	if sel != nil {
		tables = p.analyzeTables(sel, pend)
	}
	for _, pc := range pend {
		opts := CastOptions{}
		// Pushdown only into relation-shaped targets: relation→relation is
		// the one per-row-faithful cast, so a body predicate over the
		// source's columns means the same thing on either side of the
		// wire. Array-, kv- and tiledb-shaped targets rebuild their copy
		// (dims coerced, collisions overwritten, cells exploded) and then
		// shim back with a transformed schema — the body's predicate is
		// not a predicate over the source rows, so those casts migrate in
		// full and the body does all its filtering after the move.
		if ti := tableIndexOf(tables, pc.placeholder); ti >= 0 && pc.known && pc.target == EnginePostgres {
			opts.Predicate, opts.Columns = computePushdown(sel, tables, ti)
		}
		tmp, err := p.runCast(ctx, pc, opts)
		temps = append(temps, tmp)
		if err != nil {
			return rewritten, temps, err
		}
	}
	return rewritten, temps, nil
}

// pdTable is one FROM/JOIN table as the pushdown analysis sees it;
// analyzeTables lists the FROM table first and then each JOIN in order,
// so a table's index is its input number for relational.SplitBelowJoin.
type pdTable struct {
	name   string // lower-cased table name as written
	alias  string // lower-cased alias (table name when unaliased)
	schema engine.Schema
	known  bool
}

// analyzeTables resolves the schema of every table referenced by the
// SELECT: placeholders from their pending cast, everything else through
// the catalog or the relational engine itself.
func (p *Polystore) analyzeTables(sel *relational.Select, pend []*pendingCast) []pdTable {
	byPlaceholder := map[string]*pendingCast{}
	for _, pc := range pend {
		byPlaceholder[strings.ToLower(pc.placeholder)] = pc
	}
	add := func(ref relational.TableRef) pdTable {
		t := pdTable{name: strings.ToLower(ref.Name), alias: strings.ToLower(ref.Alias)}
		if t.alias == "" {
			t.alias = t.name
		}
		if pc, ok := byPlaceholder[t.name]; ok {
			t.schema, t.known = pc.schema, pc.known
			return t
		}
		if info, ok := p.Lookup(ref.Name); ok {
			t.schema, t.known = p.objectSchema(info)
			return t
		}
		if s, err := p.Relational.TableSchema(ref.Name); err == nil {
			t.schema, t.known = s, true
		}
		return t
	}
	var tables []pdTable
	if sel.From != nil {
		tables = append(tables, add(*sel.From))
	}
	for _, j := range sel.Joins {
		tables = append(tables, add(j.Table))
	}
	return tables
}

func tableIndexOf(tables []pdTable, name string) int {
	name = strings.ToLower(name)
	for i, t := range tables {
		if t.name == name {
			return i
		}
	}
	return -1
}

// computePushdown derives the source-side predicate and projection for
// tables[ti] from the SELECT. The predicate is the AND of the WHERE
// conjuncts that provably reference only that table and cannot error on
// rows the island would never evaluate; the projection is the set of
// its columns referenced anywhere in the statement.
func computePushdown(sel *relational.Select, tables []pdTable, ti int) (string, []string) {
	target := &tables[ti]
	if !target.known {
		return "", nil
	}

	// Collect every expression and star in the statement.
	starAll := false
	starOf := map[string]bool{}
	var exprs []relational.Expr
	for _, item := range sel.Items {
		if item.Star {
			if item.Table == "" {
				starAll = true
			} else {
				starOf[strings.ToLower(item.Table)] = true
			}
			continue
		}
		exprs = append(exprs, item.Expr)
	}
	if sel.Where != nil {
		exprs = append(exprs, sel.Where)
	}
	if sel.Having != nil {
		exprs = append(exprs, sel.Having)
	}
	exprs = append(exprs, sel.GroupBy...)
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, j := range sel.Joins {
		if j.On != nil {
			exprs = append(exprs, j.On)
		}
	}

	// ownerOf attributes a column reference to a table index, or -1 when
	// attribution is uncertain (unknown schemas, ambiguity).
	allKnown := true
	for i := range tables {
		if !tables[i].known {
			allKnown = false
		}
	}
	ownerOf := func(cr relational.ColumnRef) int {
		if cr.Table != "" {
			q := strings.ToLower(cr.Table)
			for i := range tables {
				if tables[i].alias == q {
					return i
				}
			}
			return -1
		}
		if !allKnown {
			return -1
		}
		owner, hits := -1, 0
		for i := range tables {
			if tables[i].schema.Index(cr.Name) >= 0 {
				owner = i
				hits++
			}
		}
		if hits == 1 {
			return owner
		}
		return -1
	}

	// Projection: the target's columns referenced anywhere. Unqualified
	// names that *might* belong to the target are kept conservatively.
	var cols []string
	if !starAll && !starOf[target.alias] {
		needed := map[string]bool{}
		for _, e := range exprs {
			relational.WalkColumnRefs(e, func(cr relational.ColumnRef) {
				q := strings.ToLower(cr.Table)
				if q == target.alias || (q == "" && target.schema.Index(cr.Name) >= 0) {
					needed[strings.ToLower(cr.Name)] = true
				}
			})
		}
		for _, c := range target.schema.Columns {
			if needed[strings.ToLower(c.Name)] {
				cols = append(cols, c.Name)
			}
		}
		if len(cols) == 0 && len(target.schema.Columns) > 0 {
			cols = []string{target.schema.Columns[0].Name} // keep cardinality
		}
		if len(cols) == len(target.schema.Columns) {
			cols = nil
		}
	}

	// Predicate: the WHERE conjuncts the executor's own rule would run
	// below the joins on the target — wholly owned by it, never on the
	// padded side of a LEFT JOIN, and only when nothing in WHERE or ON
	// can error (the baseline evaluates `10 / t` on the t=0 row a pushed
	// `t <> 0` would have removed). Projection is unaffected: it never
	// removes rows.
	below, _ := relational.SplitBelowJoin(sel.Where, sel.Joins, ti, func(cr relational.ColumnRef) (bool, bool) {
		return ownerOf(cr) == ti && target.schema.Index(cr.Name) >= 0, true
	})
	var pushed []string
	for _, c := range below {
		pushed = append(pushed, relational.FormatExpr(relational.StripQualifiers(c)))
	}
	return strings.Join(pushed, " AND "), cols
}

// ---------- ARRAY / SCIDB island ----------

// domainSensitiveOps are AFL operators whose results depend on the
// array's dimension bounds, which a filtered load infers from the
// (pruned) data — pushdown would change them, so their presence
// anywhere in the body disables array pushdown.
var domainSensitiveOps = []string{"subarray", "regrid", "window", "multiply"}

// pushdownSafeArrayBody reports whether the AFL body is free of
// domain-sensitive operators. The check is lexical and deliberately
// conservative — the *word* appearing anywhere outside quotes disables
// pushdown, because the array engine's splitCall tolerates whitespace
// before the parenthesis (`subarray (x, ...)`) that a findCall-based
// probe would miss. aggregate is domain-free in its 2-arg form but its
// 3-arg form groups per domain position (empty groups included), so
// every aggregate occurrence must be locatable and confirmed 2-arg.
func pushdownSafeArrayBody(body string) bool {
	for _, op := range domainSensitiveOps {
		if containsWord(body, op) {
			return false
		}
	}
	occurrences := countWord(body, "aggregate")
	from := 0
	for n := 0; n < occurrences; n++ {
		start, end, ok := findCall(body, "aggregate", from)
		if !ok {
			return false // spaced or unbalanced call: arity unverifiable
		}
		if len(splitTopArgs(body[start+len("aggregate("):end-1])) != 2 {
			return false
		}
		from = end
	}
	return true
}

// planArray plans pushdown for AFL bodies: every filter(CAST(x, array),
// cond) whose condition translates to the source's columns executes the
// CAST as a filtered migration. The filter stays in the body (it is
// idempotent over the pre-filtered copy), so a condition the source
// cannot evaluate simply falls back to full migration.
func (p *Polystore) planArray(ctx context.Context, body string) (string, []string, error) {
	var temps []string
	pushdownSafe := pushdownSafeArrayBody(body)
	pushed := 0
	from := 0
	for guard := 0; pushdownSafe && guard < maxCastsPerQuery; guard++ {
		start, end, ok := findCall(body, "filter", from)
		if !ok {
			break
		}
		from = start + len("filter(")
		args := splitTopArgs(body[start+len("filter(") : end-1])
		if len(args) != 2 {
			continue
		}
		castArg := strings.TrimSpace(args[0])
		cs, ce, cok := findCall(castArg, "CAST", 0)
		if !cok || cs != 0 || ce != len(castArg) {
			continue
		}
		cargs := splitTopArgs(castArg[len("CAST(") : len(castArg)-1])
		if len(cargs) != 2 {
			continue // resolveCasts below reports the arity error
		}
		target, err := castTargetEngine(cargs[1])
		if err != nil || target != EngineSciDB {
			continue
		}
		src := strings.TrimSpace(cargs[0])
		if looksLikeIslandQuery(src) {
			continue // nested sources migrate in full
		}
		info, ok := p.Lookup(src)
		if !ok {
			continue
		}
		schema, ok := p.objectSchema(info)
		if !ok || len(schema.Columns) < 2 || schema.Columns[0].Type != engine.TypeInt {
			continue // a synthesized row-number dimension would renumber
		}
		cond, ok := translatableCondition(args[1], schema)
		if !ok {
			continue
		}
		// Execute the filtered cast and splice the placeholder over the
		// CAST term (the first CAST at or after the filter's position).
		bs, be, _ := findCall(body, "CAST", start)
		ph := p.tempName("cast")
		temps = append(temps, ph)
		if _, err := p.CastCtx(ctx, src, target, CastOptions{TargetName: ph, Predicate: cond}); err != nil {
			// A predicate matching zero rows cannot land (arrays cannot be
			// empty) and Cast reports it as an error; recast in full
			// instead — the body's own filter still prunes after the move.
			// The recast goes through the polystore's retry policy: it
			// waits one backoff step and counts in RetryStats, so the
			// fallback is governed and observable like any other retry.
			if ctx.Err() != nil {
				return body, temps, ctx.Err()
			}
			if serr := sleepCtx(ctx, p.retryPolicy().backoff(0)); serr != nil {
				return body, temps, serr
			}
			p.om.castRetries.Inc()
			if _, err2 := p.CastCtx(ctx, src, target, CastOptions{TargetName: ph}); err2 != nil {
				return body, temps, err2
			}
		}
		pushed++
		body = body[:bs] + ph + body[be:]
		from = bs + len(ph)
	}
	// Any remaining CAST terms (outside filter position, nested sources,
	// untranslatable conditions) migrate in full, on whatever is left of
	// the query's CAST budget — planned or not, exactly maxCastsPerQuery
	// terms resolve before the guard trips.
	rest, moreTemps, err := p.resolveCastsBudget(ctx, body, maxCastsPerQuery-pushed)
	return rest, append(temps, moreTemps...), err
}

// translatableCondition validates an island filter condition against
// the source schema, returning its canonical form. Every column it
// references must exist at the source (unqualified), and it must be
// aggregate-free; the evaluation set is identical pushed or not (the
// filter sees every migrated cell), so scalar functions are fine here.
func translatableCondition(cond string, schema engine.Schema) (string, bool) {
	e, err := relational.ParseExpression(cond)
	if err != nil || relational.HasAggregate(e) {
		return "", false
	}
	ok := true
	relational.WalkColumnRefs(e, func(cr relational.ColumnRef) {
		if cr.Table != "" || schema.Index(cr.Name) < 0 {
			ok = false
		}
	})
	if !ok {
		return "", false
	}
	return relational.FormatExpr(e), true
}

// ---------- TEXT island ----------

// planText plans pushdown for text-island bodies: scan(CAST(x, text),
// 'lo' [, 'hi']) and get(CAST(x, text), 'row') push the row range down
// as a predicate over the source's row-key column (its first column,
// which loadKV maps to the Accumulo row key).
func (p *Polystore) planText(ctx context.Context, body string) (string, []string, error) {
	cmd, args, err := parseCommand(body)
	if err != nil {
		return p.resolveCasts(ctx, body)
	}
	var lo, hi string
	switch {
	case cmd == "scan" && (len(args) == 2 || len(args) == 3):
		lo = unquote(args[1])
		if len(args) == 3 {
			hi = unquote(args[2])
		}
	case cmd == "get" && len(args) == 2:
		lo = unquote(args[1])
		hi = lo
	default:
		return p.resolveCasts(ctx, body)
	}
	castArg := strings.TrimSpace(args[0])
	cs, ce, cok := findCall(castArg, "CAST", 0)
	if !cok || cs != 0 || ce != len(castArg) || (lo == "" && hi == "") {
		return p.resolveCasts(ctx, body)
	}
	cargs := splitTopArgs(castArg[len("CAST(") : len(castArg)-1])
	if len(cargs) != 2 {
		return p.resolveCasts(ctx, body)
	}
	target, err := castTargetEngine(cargs[1])
	if err != nil || target != EngineAccumulo {
		return p.resolveCasts(ctx, body)
	}
	src := strings.TrimSpace(cargs[0])
	if looksLikeIslandQuery(src) {
		return p.resolveCasts(ctx, body)
	}
	info, ok := p.Lookup(src)
	if !ok {
		return p.resolveCasts(ctx, body)
	}
	schema, ok := p.objectSchema(info)
	if !ok || len(schema.Columns) == 0 || !plainIdent(schema.Columns[0].Name) {
		return p.resolveCasts(ctx, body)
	}
	pred := rowRangePredicate(schema.Columns[0].Name, lo, hi)

	bs, be, _ := findCall(body, "CAST", 0)
	ph := p.tempName("cast")
	temps := []string{ph}
	if _, err := p.CastCtx(ctx, src, target, CastOptions{TargetName: ph, Predicate: pred}); err != nil {
		return body, temps, err
	}
	// Any further CAST terms (e.g. inside the range arguments) resolve
	// in full against the remaining budget, exactly as planner-off would.
	rest, moreTemps, err := p.resolveCastsBudget(ctx, body[:bs]+ph+body[be:], maxCastsPerQuery-1)
	return rest, append(temps, moreTemps...), err
}

// rowRangePredicate renders the KV scan range [lo, hi] (empty = open)
// as a predicate on the row-key column. The KV engine compares the
// *stringified* key, which is exactly what engine.Compare does for
// mixed string/non-string operands, so the predicate agrees with the
// scan for every column type. A NULL key stringifies to "" — below any
// non-empty lower bound both ways, but an upper-bound-only range keeps
// it, hence the IS NULL escape.
func rowRangePredicate(col, lo, hi string) string {
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	switch {
	case lo != "" && hi != "":
		return fmt.Sprintf("%s >= %s AND %s <= %s", col, quote(lo), col, quote(hi))
	case lo != "":
		return fmt.Sprintf("%s >= %s", col, quote(lo))
	default:
		return fmt.Sprintf("%s <= %s OR %s IS NULL", col, quote(hi), col)
	}
}

// plainIdent reports whether s lexes as a single bare SQL identifier.
func plainIdent(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isWordChar(s[i]) {
			return false
		}
	}
	return true
}

// ---------- shared plumbing ----------

// objectSchema reports the relation schema a Dump of the object would
// have, without materialising anything.
func (p *Polystore) objectSchema(info ObjectInfo) (engine.Schema, bool) {
	switch info.Engine {
	case EnginePostgres:
		s, err := p.Relational.TableSchema(info.Physical)
		return s, err == nil
	case EngineSciDB:
		a, err := p.ArrayStore.Get(info.Physical)
		if err != nil {
			return engine.Schema{}, false
		}
		return a.Schema(), true
	case EngineAccumulo:
		return kvResultRelation().Schema, true
	case EngineSStore:
		w, err := p.Streams.Window(info.Physical)
		if err != nil {
			return engine.Schema{}, false
		}
		cols := append([]engine.Column{engine.Col("ts", engine.TypeInt)}, w.Schema.Columns...)
		return engine.Schema{Columns: cols}, true
	case EngineTileDB:
		a, err := p.TileDBArray(info.Physical)
		if err != nil {
			return engine.Schema{}, false
		}
		nd := len(a.Domain.Lo)
		cols := make([]engine.Column, 0, nd+1)
		for i := 0; i < nd; i++ {
			cols = append(cols, engine.Col(fmt.Sprintf("d%d", i), engine.TypeInt))
		}
		cols = append(cols, engine.Col("v", engine.TypeFloat))
		return engine.Schema{Columns: cols}, true
	default:
		return engine.Schema{}, false
	}
}

// dropTempObjects deregisters query-scoped temp objects and removes
// their physical storage — the fix for the CAST temp leak: before this,
// every resolved CAST and shim left a copy behind in the catalog *and*
// the target engine, so long-running polystores grew without bound.
func (p *Polystore) dropTempObjects(names []string) {
	for _, name := range names {
		info, ok := p.Lookup(name)
		if !ok {
			continue
		}
		p.Deregister(name)
		p.dropPhysical(info.Engine, info.Physical)
	}
}
