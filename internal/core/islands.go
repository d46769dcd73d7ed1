package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/myria"
	"repro/internal/relational"
	"repro/internal/trace"
)

// Query executes one SCOPE/CAST query, e.g.
//
//	RELATIONAL(SELECT * FROM CAST(wf, relation) WHERE v > 5)
//	ARRAY(aggregate(filter(wf, v > 0), avg(v)))
//	TEXT(search(notes, 'very sick', 3))
//	STREAM(aggregate(vitals, avg, v))
//	D4M(bfs(edges, 'a', 5))
//
// CAST terms are resolved first (migrating data between engines as
// needed, §2.1), then the body is dispatched to the island. The first
// argument of CAST may itself be a nested island query, which composes
// cross-island pipelines.
//
// When pushdown is enabled (the default) the planner in planner.go
// rewrites CAST-bearing bodies so each migration carries only the rows
// and columns the island body can observe; SetPushdown(false) restores
// the migrate-everything path. Either way, the temp objects a query
// mints (cast copies, nested sub-results, shims) are dropped — catalog
// entry and physical storage — before Query returns, so long-running
// polystores no longer accumulate them.
func (p *Polystore) Query(q string) (*engine.Relation, error) {
	return p.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with cancellation and deadlines: a done context
// tears down any in-flight CAST pipeline (encoder, decoder and their
// pipe all unwind — no goroutine outlives the call) and the atomic-cast
// machinery guarantees the catalog and engines are left exactly as
// they were before the query started.
//
// Every call is observable twice over: when ctx carries a trace (see
// internal/trace and ExplainAnalyze) the parse → plan → execute stages
// open spans, with the per-cast migrate pipeline nesting underneath;
// and every successful call classifies the query (monitor.QueryClass)
// and feeds an (object, class, engine, latency) observation into
// p.Monitor — the paper's §2.1 loop, closed from live traffic instead
// of hand-written probe calls.
func (p *Polystore) QueryCtx(ctx context.Context, q string) (*engine.Relation, error) {
	start := time.Now()
	ctx, qspan := trace.Start(ctx, "query")
	defer qspan.End()
	_, pspan := trace.Start(ctx, "parse")
	sq, err := parseScope(q)
	pspan.End()
	if err != nil {
		p.om.queryErrors.Inc()
		return nil, err
	}
	class := classifyBody(sq.island, sq.body)
	qspan.SetStr("island", string(sq.island))
	qspan.SetStr("class", string(class))
	rel, err := p.executeBody(ctx, sq.island, sq.body)
	if err != nil {
		p.om.queryErrors.Inc()
		return nil, err
	}
	elapsed := time.Since(start)
	p.om.queryLatency.Observe(elapsed)
	if c := p.om.queryCount[sq.island]; c != nil {
		c.Inc()
	}
	if c := p.om.classCount[class]; c != nil {
		c.Inc()
	}
	p.observeQuery(sq.island, class, sq.body, elapsed)
	return rel, nil
}

// executeBody routes a raw (SCOPE-stripped) body: bodies that mention
// sharded objects take the scatter-gather path (scatter.go); everything
// else plans and executes locally.
func (p *Polystore) executeBody(ctx context.Context, island Island, body string) (*engine.Relation, error) {
	if names := p.shardedRefs(body); len(names) > 0 {
		return p.scatterExecute(ctx, island, body, names)
	}
	return p.executeLocal(ctx, island, body)
}

// executeLocal is the single-node execution path: plan (CAST pushdown,
// cast resolution), reclaim the query's temp objects, and dispatch the
// prepared body to its island.
func (p *Polystore) executeLocal(ctx context.Context, island Island, body string) (*engine.Relation, error) {
	plctx, plspan := trace.Start(ctx, "plan")
	prepared, temps, err := p.prepareBody(plctx, island, body)
	plspan.End()
	defer p.dropTempObjects(temps)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	ectx, espan := trace.Start(ctx, "execute")
	rel, err := p.dispatch(ectx, island, prepared)
	espan.End()
	return rel, err
}

// dispatch routes a prepared body to its island.
func (p *Polystore) dispatch(ctx context.Context, island Island, body string) (*engine.Relation, error) {
	switch island {
	case IslandPostgres:
		return p.Relational.Execute(body)
	case IslandSciDB:
		return p.ArrayStore.Query(body)
	case IslandRelational:
		return p.relationalIsland(ctx, body)
	case IslandArray:
		return p.arrayIsland(ctx, body)
	case IslandAccumulo:
		return p.textIsland(body)
	case IslandSStore:
		return p.streamIsland(body)
	case IslandD4M:
		return p.d4mIsland(body)
	case IslandMyria:
		return nil, fmt.Errorf("core: the MYRIA island is programmatic; use ExecuteMyria")
	default:
		return nil, fmt.Errorf("core: island %q not dispatchable", island)
	}
}

// resolveCasts rewrites every CAST(obj-or-query, target) in the body,
// performing the full (unfiltered) migration and substituting the
// migrated object's name — the planner-off path, and the fallback for
// bodies the planner cannot analyse. The minted temp names are returned
// (also on error) so the caller can reclaim them after the query.
func (p *Polystore) resolveCasts(ctx context.Context, body string) (string, []string, error) {
	return p.resolveCastsBudget(ctx, body, maxCastsPerQuery)
}

// resolveCastsBudget is resolveCasts with an explicit CAST budget:
// planners that already executed some of the body's CAST terms pass
// the remainder, so a query resolves exactly maxCastsPerQuery terms —
// and errors on one more — whether or not pushdown planned it. It is
// the planner's own lift (extractCasts) with every pending cast run in
// full, so both paths agree on parsing, naming and CastStats.
func (p *Polystore) resolveCastsBudget(ctx context.Context, body string, budget int) (string, []string, error) {
	rewritten, pend, err := p.extractCasts(ctx, body, budget)
	if err != nil {
		return "", nil, err
	}
	var temps []string
	for _, pc := range pend {
		tmp, err := p.runCast(ctx, pc, CastOptions{})
		temps = append(temps, tmp)
		if err != nil {
			return "", temps, err
		}
	}
	return rewritten, temps, nil
}

func looksLikeIslandQuery(s string) bool {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(strings.TrimSpace(s), ")") {
		return false
	}
	_, err := parseScope(s)
	return err == nil
}

// relationalIsland runs a SELECT with location transparency: tables
// that live outside the relational engine are shimmed in (a temp copy
// is cast over) before execution. This is the multi-engine SQL island.
// Shim casts get the same pushdown analysis as explicit CASTs — the
// query's own WHERE and column references travel down into the foreign
// engine — and shim copies are dropped once the SELECT completes.
func (p *Polystore) relationalIsland(ctx context.Context, body string) (*engine.Relation, error) {
	stmt, err := relational.Parse(body)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*relational.Select)
	if !ok {
		return nil, fmt.Errorf("core: the RELATIONAL island accepts SELECT only (DDL/DML go to POSTGRES)")
	}
	// Shim pushdown analysis is computed lazily, on the first table that
	// actually needs a cross-engine shim: the common all-relational (or
	// all-placeholder) SELECT never pays for a second analyzeTables pass
	// on top of the planner's.
	var tables []pdTable
	analyzed := false
	var temps []string
	defer func() { p.dropTempObjects(temps) }()
	shim := func(ref *relational.TableRef, ti int) error {
		if ref == nil {
			return nil
		}
		info, known := p.Lookup(ref.Name)
		if !known {
			return nil // let the engine report unknown tables
		}
		if info.Engine == EnginePostgres {
			if !strings.EqualFold(info.Physical, ref.Name) {
				if ref.Alias == "" {
					ref.Alias = ref.Name
				}
				ref.Name = info.Physical
			}
			return nil
		}
		if !analyzed && p.pushdownOn() {
			tables = p.analyzeTables(sel, nil)
			analyzed = true
		}
		opts := CastOptions{}
		if tables != nil && ti < len(tables) {
			opts.Predicate, opts.Columns = computePushdown(sel, tables, ti)
		}
		res, err := p.CastCtx(ctx, ref.Name, EnginePostgres, opts)
		if res.Target != "" {
			temps = append(temps, res.Target)
		}
		if err != nil {
			return fmt.Errorf("core: shim %s from %s: %w", ref.Name, info.Engine, err)
		}
		if ref.Alias == "" {
			ref.Alias = ref.Name // keep qualified column refs working
		}
		ref.Name = res.Target
		return nil
	}
	if err := shim(sel.From, 0); err != nil {
		return nil, err
	}
	for i := range sel.Joins {
		if err := shim(&sel.Joins[i].Table, 1+i); err != nil {
			return nil, err
		}
	}
	return p.Relational.ExecuteSelect(sel)
}

// arrayIsland runs an AFL query with location transparency: named
// objects living outside the array engine are shimmed in first. Shim
// copies are dropped once the query completes.
func (p *Polystore) arrayIsland(ctx context.Context, body string) (*engine.Relation, error) {
	var temps []string
	defer func() { p.dropTempObjects(temps) }()
	for _, obj := range p.Objects() {
		if obj.Engine == EngineSciDB {
			continue
		}
		if !containsWord(body, obj.Name) {
			continue
		}
		res, err := p.CastCtx(ctx, obj.Name, EngineSciDB, CastOptions{})
		if res.Target != "" {
			temps = append(temps, res.Target)
		}
		if err != nil {
			return nil, fmt.Errorf("core: shim %s from %s: %w", obj.Name, obj.Engine, err)
		}
		body = replaceWord(body, obj.Name, res.Target)
	}
	return p.ArrayStore.Query(body)
}

// countWord counts whole-word, case-insensitive, non-overlapping
// occurrences outside quotes.
func countWord(s, word string) int {
	upper := strings.ToUpper(s)
	uw := strings.ToUpper(word)
	count := 0
	inStr := false
	for i := 0; i+len(uw) <= len(s); {
		if inStr {
			if s[i] == '\'' {
				inStr = false
			}
			i++
			continue
		}
		if s[i] == '\'' {
			inStr = true
			i++
			continue
		}
		if strings.HasPrefix(upper[i:], uw) &&
			(i == 0 || !isWordChar(s[i-1])) &&
			(i+len(uw) >= len(s) || !isWordChar(s[i+len(uw)])) {
			count++
			i += len(uw)
			continue
		}
		i++
	}
	return count
}

// containsWord reports a whole-word, case-insensitive occurrence
// outside quotes.
func containsWord(s, word string) bool { return countWord(s, word) > 0 }

func replaceWord(s, word, with string) string {
	upper := strings.ToUpper(s)
	uw := strings.ToUpper(word)
	var sb strings.Builder
	inStr := false
	for i := 0; i < len(s); {
		if inStr {
			if s[i] == '\'' {
				inStr = false
			}
			sb.WriteByte(s[i])
			i++
			continue
		}
		if s[i] == '\'' {
			inStr = true
			sb.WriteByte(s[i])
			i++
			continue
		}
		if strings.HasPrefix(upper[i:], uw) &&
			(i == 0 || !isWordChar(s[i-1])) &&
			(i+len(uw) >= len(s) || !isWordChar(s[i+len(uw)])) {
			sb.WriteString(with)
			i += len(uw)
			continue
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

// textIsland dispatches the Accumulo degenerate island's commands:
//
//	search(table, 'phrase', minCount)
//	searchscan(table, 'phrase', minCount)   — unindexed baseline
//	scan(table [, 'startRow' [, 'endRow']])
//	get(table, 'row')
//	count(table)
func (p *Polystore) textIsland(body string) (*engine.Relation, error) {
	cmd, args, err := parseCommand(body)
	if err != nil {
		return nil, err
	}
	physical := func(obj string) string {
		if info, known := p.Lookup(obj); known {
			return info.Physical
		}
		return obj
	}
	switch cmd {
	case "search", "searchscan":
		if len(args) != 3 {
			return nil, fmt.Errorf("core: %s(table, 'phrase', minCount)", cmd)
		}
		minCount, err := strconv.Atoi(strings.TrimSpace(args[2]))
		if err != nil {
			return nil, fmt.Errorf("core: bad minCount %q", args[2])
		}
		table := physical(args[0])
		phrase := unquote(args[1])
		var results []struct {
			Row   string
			Count int
		}
		if cmd == "search" {
			rs, err := p.KV.Search(table, phrase, minCount)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				results = append(results, struct {
					Row   string
					Count int
				}{r.Row, r.Count})
			}
		} else {
			rs, err := p.KV.SearchScan(table, phrase, minCount)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				results = append(results, struct {
					Row   string
					Count int
				}{r.Row, r.Count})
			}
		}
		rel := engine.NewRelation(engine.NewSchema(
			engine.Col("row", engine.TypeString), engine.Col("count", engine.TypeInt)))
		for _, r := range results {
			_ = rel.Append(engine.Tuple{engine.NewString(r.Row), engine.NewInt(int64(r.Count))})
		}
		return rel, nil
	case "scan":
		if len(args) < 1 || len(args) > 3 {
			return nil, fmt.Errorf("core: scan(table [, start [, end]])")
		}
		startRow, endRow := "", ""
		if len(args) >= 2 {
			startRow = unquote(args[1])
		}
		if len(args) == 3 {
			endRow = unquote(args[2])
		}
		rel := kvResultRelation()
		err := p.KV.Scan(physical(args[0]), startRow, endRow, nil, kvAppend(rel))
		if err != nil {
			return nil, err
		}
		return rel, nil
	case "get":
		if len(args) != 2 {
			return nil, fmt.Errorf("core: get(table, 'row')")
		}
		es, err := p.KV.Get(physical(args[0]), unquote(args[1]))
		if err != nil {
			return nil, err
		}
		rel := kvResultRelation()
		app := kvAppend(rel)
		for _, e := range es {
			_ = app(e)
		}
		return rel, nil
	case "count":
		if len(args) != 1 {
			return nil, fmt.Errorf("core: count(table)")
		}
		n, err := p.KV.Len(physical(args[0]))
		if err != nil {
			return nil, err
		}
		rel := engine.NewRelation(engine.NewSchema(engine.Col("count", engine.TypeInt)))
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(n))})
		return rel, nil
	default:
		return nil, fmt.Errorf("core: unknown text island command %q", cmd)
	}
}

// streamIsland dispatches the S-Store degenerate island's commands:
//
//	window(stream)            — the current sliding window
//	aggregate(stream, kind, col)
//	appended(stream)
func (p *Polystore) streamIsland(body string) (*engine.Relation, error) {
	cmd, args, err := parseCommand(body)
	if err != nil {
		return nil, err
	}
	physical := func(obj string) string {
		if info, known := p.Lookup(obj); known {
			return info.Physical
		}
		return obj
	}
	switch cmd {
	case "window":
		if len(args) != 1 {
			return nil, fmt.Errorf("core: window(stream)")
		}
		return p.Streams.Dump(physical(args[0]))
	case "aggregate":
		if len(args) != 3 {
			return nil, fmt.Errorf("core: aggregate(stream, kind, col)")
		}
		w, err := p.Streams.Window(physical(args[0]))
		if err != nil {
			return nil, err
		}
		v, err := w.Aggregate(strings.TrimSpace(args[1]), strings.TrimSpace(args[2]))
		if err != nil {
			return nil, err
		}
		rel := engine.NewRelation(engine.NewSchema(engine.Col("value", engine.TypeFloat)))
		_ = rel.Append(engine.Tuple{engine.NewFloat(v)})
		return rel, nil
	case "appended":
		if len(args) != 1 {
			return nil, fmt.Errorf("core: appended(stream)")
		}
		n, err := p.Streams.Appended(physical(args[0]))
		if err != nil {
			return nil, err
		}
		rel := engine.NewRelation(engine.NewSchema(engine.Col("appended", engine.TypeInt)))
		_ = rel.Append(engine.Tuple{engine.NewInt(n)})
		return rel, nil
	default:
		return nil, fmt.Errorf("core: unknown stream island command %q", cmd)
	}
}

// parseCommand splits "name(arg1, arg2)" into lower-cased name + args.
func parseCommand(body string) (string, []string, error) {
	body = strings.TrimSpace(body)
	open := strings.IndexByte(body, '(')
	if open <= 0 || !strings.HasSuffix(body, ")") {
		return "", nil, fmt.Errorf("core: malformed command %q", body)
	}
	name := strings.ToLower(strings.TrimSpace(body[:open]))
	inner := body[open+1 : len(body)-1]
	if !balanced(inner) {
		return "", nil, fmt.Errorf("core: unbalanced command %q", body)
	}
	return name, splitTopArgs(inner), nil
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return s[1 : len(s)-1]
	}
	return s
}

func kvResultRelation() *engine.Relation {
	return engine.NewRelation(engine.NewSchema(
		engine.Col("row", engine.TypeString), engine.Col("family", engine.TypeString),
		engine.Col("qualifier", engine.TypeString), engine.Col("ts", engine.TypeInt),
		engine.Col("value", engine.TypeString),
	))
}

func kvAppend(rel *engine.Relation) func(e kvstore.Entry) error {
	return func(e kvstore.Entry) error {
		return rel.Append(engine.Tuple{
			engine.NewString(e.Key.Row), engine.NewString(e.Key.Family),
			engine.NewString(e.Key.Qualifier), engine.NewInt(e.Key.Timestamp),
			engine.NewString(e.Value),
		})
	}
}

// ExecuteMyria runs a Myria plan (relational algebra + iteration)
// against the polystore: Scan nodes resolve through the catalog, so a
// single plan can join a Postgres table with a SciDB array — the Myria
// island's multi-engine promise. The plan is optimized first.
func (p *Polystore) ExecuteMyria(plan myria.Plan) (*engine.Relation, *myria.Stats, error) {
	return myria.Execute(myria.Optimize(plan), polySource{p})
}

// polySource adapts the polystore catalog to myria.Source.
type polySource struct{ p *Polystore }

// Relation implements myria.Source by dumping the object from whichever
// engine holds it.
func (s polySource) Relation(name string) (*engine.Relation, error) {
	return s.p.Dump(name)
}
