package core

// Scatter-gather execution over a sharded federation. A sharded object
// is registered once on the coordinator (RegisterSharded) with a
// partitioning Spec (internal/shard) and the list of shard endpoints
// that hold its partitions; each shard node is an ordinary polystore —
// usually reached over BDWQ via internal/server/client — whose copy of
// the object carries the hidden shard.GposColumn recording every row's
// global position, so gathered results restore the exact original row
// order (order is semantic here: casting into the array island derives
// coordinates from row position).
//
// Queries that mention a sharded object are intercepted before local
// planning (executeBody in islands.go) and take one of two paths:
//
//   - Pushdown scatter: narrow relational shapes (single sharded table,
//     no joins/DISTINCT/HAVING/ORDER BY/LIMIT) run on every shard with
//     the partition substituted for the table, then merge — plain
//     projections gather by global position, aggregates merge partial
//     states (COUNT sums, SUM/MIN/MAX fold) per group, with group order
//     restored from the minimum global position in each group.
//   - Gather fallback: everything else fetches each referenced object's
//     partitions in parallel, reassembles them into a local temp table,
//     rewrites the body to the temp names, and runs the normal local
//     path — trading data movement for full generality.
//
// A failed or cancelled shard surfaces as *ShardFailure naming the
// object and shard index; the fan-out always waits for every in-flight
// shard response before returning, so no goroutine outlives the call.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/trace"
)

// ShardEndpoint is one shard node's query surface. *client.Client and
// *client.Endpoint satisfy it; tests may use in-process fakes.
type ShardEndpoint interface {
	Query(ctx context.Context, q string) (*engine.Relation, error)
}

// Placement records where a sharded object's partitions live: the
// partitioning spec, the logical schema (without the hidden
// shard.GposColumn), and for each partition the index of its endpoint
// in the coordinator's endpoint list.
type Placement struct {
	Spec   shard.Spec
	Schema engine.Schema
	Shards []int
}

// ShardFailure is the typed partial-failure error for scatter-gather: a
// query fanned across an object's shards and at least one shard failed
// (or the context was cancelled while it was in flight).
type ShardFailure struct {
	Object string
	Shard  int
	Err    error
}

func (e *ShardFailure) Error() string {
	return fmt.Sprintf("core: shard %d of %q: %v", e.Shard, e.Object, e.Err)
}

func (e *ShardFailure) Unwrap() error { return e.Err }

// SetShardEndpoints installs the coordinator's shard endpoint list.
// Placement.Shards values index into it. Call before RegisterSharded.
func (p *Polystore) SetShardEndpoints(eps ...ShardEndpoint) {
	p.mu.Lock()
	p.shardEps = append([]ShardEndpoint(nil), eps...)
	p.mu.Unlock()
}

// RegisterSharded adds a partitioned object to the catalog: logically
// one relational table, physically spec.Shards partitions living on the
// given endpoints (each already loaded with its partition — including
// the hidden shard.GposColumn — under the same logical name). schema is
// the logical schema, without shard.GposColumn.
func (p *Polystore) RegisterSharded(name string, spec shard.Spec, schema engine.Schema, shards ...int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if schema.Index(spec.Key) < 0 {
		return fmt.Errorf("core: shard key %q not in schema of %q", spec.Key, name)
	}
	if schema.Index(shard.GposColumn) >= 0 {
		return fmt.Errorf("core: logical schema of %q must not contain %s", name, shard.GposColumn)
	}
	if len(shards) != spec.Shards {
		return fmt.Errorf("core: %q needs %d shard endpoints, got %d", name, spec.Shards, len(shards))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, idx := range shards {
		if idx < 0 || idx >= len(p.shardEps) {
			return fmt.Errorf("core: shard endpoint index %d out of range (have %d endpoints)", idx, len(p.shardEps))
		}
	}
	key := strings.ToLower(name)
	if _, ok := p.catalog[key]; ok {
		return fmt.Errorf("core: object %q already registered", name)
	}
	p.catalog[key] = ObjectInfo{Name: name, Engine: EnginePostgres, Physical: name}
	p.placements[key] = Placement{Spec: spec, Schema: schema, Shards: append([]int(nil), shards...)}
	return nil
}

// DeregisterSharded removes a sharded object's catalog entry and
// placement (partitions on the shard nodes are left to the caller).
func (p *Polystore) DeregisterSharded(name string) {
	key := strings.ToLower(name)
	p.mu.Lock()
	delete(p.catalog, key)
	delete(p.placements, key)
	p.mu.Unlock()
}

// PlacementOf reports the placement of a sharded object, if any.
func (p *Polystore) PlacementOf(name string) (Placement, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pl, ok := p.placements[strings.ToLower(name)]
	return pl, ok
}

// shardedRefs lists the sharded objects a body mentions (whole-word,
// case-insensitive, outside quotes), sorted for determinism.
func (p *Polystore) shardedRefs(body string) []string {
	p.mu.RLock()
	names := make([]string, 0, len(p.placements))
	for key := range p.placements {
		names = append(names, key)
	}
	p.mu.RUnlock()
	var refs []string
	for _, name := range names {
		if containsWord(body, name) {
			refs = append(refs, name)
		}
	}
	sort.Strings(refs)
	return refs
}

// endpointsFor resolves a placement's endpoint indexes to live
// endpoints.
func (p *Polystore) endpointsFor(pl Placement) ([]ShardEndpoint, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	eps := make([]ShardEndpoint, len(pl.Shards))
	for i, idx := range pl.Shards {
		if idx < 0 || idx >= len(p.shardEps) {
			return nil, fmt.Errorf("core: shard endpoint index %d out of range (have %d endpoints)", idx, len(p.shardEps))
		}
		eps[i] = p.shardEps[idx]
	}
	return eps, nil
}

// scatterExecute runs a body that references sharded objects: pushdown
// scatter when the shape allows, gather-then-run otherwise.
func (p *Polystore) scatterExecute(ctx context.Context, island Island, body string, names []string) (*engine.Relation, error) {
	ctx, span := trace.Start(ctx, "scatter")
	defer span.End()
	span.SetStr("objects", strings.Join(names, ","))
	p.om.scatterCount.Inc()
	if island == IslandRelational || island == IslandPostgres {
		rel, handled, err := p.tryScatterPushdown(ctx, island, body, names)
		if handled {
			span.SetStr("mode", "pushdown")
			p.om.scatterPushed.Inc()
			return rel, err
		}
	}
	span.SetStr("mode", "gather")
	p.om.scatterGather.Inc()
	var temps []string
	defer func() { p.dropTempObjects(temps) }()
	rewritten := body
	for _, name := range names {
		tmp, err := p.gatherToTemp(ctx, name)
		if tmp != "" {
			temps = append(temps, tmp)
		}
		if err != nil {
			return nil, err
		}
		rewritten = replaceWord(rewritten, name, tmp)
	}
	return p.executeLocal(ctx, island, rewritten)
}

// gatherObject fetches every partition of a sharded object in parallel
// and reassembles the original relation, in original row order, without
// the hidden position column.
func (p *Polystore) gatherObject(ctx context.Context, name string) (*engine.Relation, error) {
	pl, ok := p.PlacementOf(name)
	if !ok {
		return nil, fmt.Errorf("core: object %q is not sharded", name)
	}
	cols := append(pl.Schema.Names(), shard.GposColumn)
	q := fmt.Sprintf("POSTGRES(SELECT %s FROM %s)", strings.Join(cols, ", "), name)
	parts, err := p.scatterFetch(ctx, name, pl, func(int) string { return q })
	if err != nil {
		return nil, err
	}
	return shard.Gather(parts)
}

// gatherToTemp gathers a sharded object into a local temp table,
// returning its name (non-empty even on load failure, so callers can
// reclaim a partial landing).
func (p *Polystore) gatherToTemp(ctx context.Context, name string) (string, error) {
	rel, err := p.gatherObject(ctx, name)
	if err != nil {
		return "", err
	}
	tmp := p.tempName("shard")
	if err := p.LoadCtx(ctx, EnginePostgres, tmp, rel, CastOptions{}); err != nil {
		return tmp, err
	}
	return tmp, nil
}

// scatterFetch runs queryFor(i) on shard i of a placement, in parallel.
// It always waits for every shard response (no goroutine outlives the
// call) and wraps the first failure as *ShardFailure.
func (p *Polystore) scatterFetch(ctx context.Context, object string, pl Placement, queryFor func(int) string) ([]*engine.Relation, error) {
	eps, err := p.endpointsFor(pl)
	if err != nil {
		return nil, err
	}
	parts := make([]*engine.Relation, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep ShardEndpoint) {
			defer wg.Done()
			parts[i], errs[i] = ep.Query(ctx, queryFor(i))
		}(i, ep)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, &ShardFailure{Object: object, Shard: pl.Shards[i], Err: e}
		}
	}
	return parts, nil
}

// inlineRelationalCasts rewrites CAST(<sharded-object>, <relational
// target>) terms to the bare object name — on a shard the partition
// already lives in the relational engine, so the cast is the identity.
// Any other CAST term makes the body ineligible for pushdown (ok =
// false); the gather fallback handles it with full generality.
func (p *Polystore) inlineRelationalCasts(body string) (string, bool) {
	for from := 0; ; {
		start, end, found := findCall(body, "CAST", from)
		if !found {
			return body, true
		}
		inner := body[start+len("CAST(") : end-1]
		args := splitTopArgs(inner)
		if len(args) != 2 {
			return "", false
		}
		src := strings.TrimSpace(args[0])
		if _, sharded := p.PlacementOf(src); !sharded {
			return "", false
		}
		if eng, err := castTargetEngine(args[1]); err != nil || eng != EnginePostgres {
			return "", false
		}
		body = body[:start] + src + body[end:]
		from = start + len(src)
	}
}

// scatterAgg describes how to merge one projection item's per-shard
// partials.
var scatterAggOps = map[string]shard.MergeOp{
	"COUNT": shard.MergeCount,
	"SUM":   shard.MergeSum,
	"MIN":   shard.MergeMin,
	"MAX":   shard.MergeMax,
}

// tryScatterPushdown attempts to run a relational body by fanning it to
// every shard and merging, without moving the partitions. handled=false
// means the shape is out of scope and the caller should gather instead;
// handled=true returns the final (or failed) result.
func (p *Polystore) tryScatterPushdown(ctx context.Context, island Island, body string, names []string) (*engine.Relation, bool, error) {
	if len(names) != 1 {
		return nil, false, nil
	}
	name := names[0]
	pl, ok := p.PlacementOf(name)
	if !ok {
		return nil, false, nil
	}
	inlined, ok := p.inlineRelationalCasts(body)
	if !ok {
		return nil, false, nil
	}
	stmt, err := relational.Parse(inlined)
	if err != nil {
		return nil, false, nil
	}
	sel, ok := stmt.(*relational.Select)
	if !ok {
		return nil, false, nil
	}
	if sel.From == nil || !strings.EqualFold(sel.From.Name, name) ||
		len(sel.Joins) > 0 || sel.Distinct || sel.Having != nil ||
		len(sel.OrderBy) > 0 || sel.Limit >= 0 || sel.Offset > 0 {
		return nil, false, nil
	}
	if sel.Where != nil && relational.HasAggregate(sel.Where) {
		return nil, false, nil
	}
	grouped := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && relational.HasAggregate(item.Expr) {
			grouped = true
		}
	}
	if grouped {
		return p.scatterAggregate(ctx, island, name, pl, sel)
	}
	return p.scatterPlain(ctx, island, name, pl, sel)
}

// scatterPlain pushes a projection+filter to every shard, carrying the
// hidden position column through, and gathers by global position.
func (p *Polystore) scatterPlain(ctx context.Context, island Island, name string, pl Placement, sel *relational.Select) (*engine.Relation, bool, error) {
	var items, outNames []string
	for _, item := range sel.Items {
		if item.Star {
			if item.Table != "" {
				return nil, false, nil
			}
			for _, c := range pl.Schema.Columns {
				items = append(items, c.Name)
				outNames = append(outNames, c.Name)
			}
			continue
		}
		items = append(items, relational.FormatExpr(item.Expr))
		outNames = append(outNames, relational.ItemName(item))
	}
	q := p.shardSQL(island, name, sel, append(items, shard.GposColumn), "")
	parts, err := p.scatterFetch(ctx, name, pl, func(int) string { return q })
	if err != nil {
		return nil, true, err
	}
	rel, err := shard.Gather(parts)
	if err != nil {
		return nil, true, err
	}
	return renameColumns(rel, outNames), true, nil
}

// scatterAggregate pushes an aggregation to every shard — hidden group
// keys first, then the original items as partials, then the group's
// minimum global position — and merges partial states per group,
// restoring baseline (first-seen) group order from the position column.
func (p *Polystore) scatterAggregate(ctx context.Context, island Island, name string, pl Placement, sel *relational.Select) (*engine.Relation, bool, error) {
	keys := make([]relational.ColumnRef, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		cr, ok := g.(relational.ColumnRef)
		if !ok {
			return nil, false, nil
		}
		keys[i] = cr
	}
	var items []string
	outNames := make([]string, 0, len(sel.Items))
	// ops covers the non-key columns: the original items (group-key
	// items merge as identity) plus the trailing position column.
	ops := make([]shard.MergeOp, 0, len(sel.Items)+1)
	for i := range keys {
		items = append(items, fmt.Sprintf("%s AS __sk%d", relational.FormatExpr(keys[i]), i))
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, false, nil
		}
		op, ok := scatterItemOp(item.Expr, keys)
		if !ok {
			return nil, false, nil
		}
		items = append(items, relational.FormatExpr(item.Expr))
		outNames = append(outNames, relational.ItemName(item))
		ops = append(ops, op)
	}
	items = append(items, fmt.Sprintf("MIN(%s) AS __sgp", shard.GposColumn))
	ops = append(ops, shard.MergeMin)
	var groupBy strings.Builder
	for i := range keys {
		if i > 0 {
			groupBy.WriteString(", ")
		}
		groupBy.WriteString(relational.FormatExpr(keys[i]))
	}
	q := p.shardSQL(island, name, sel, items, groupBy.String())
	parts, err := p.scatterFetch(ctx, name, pl, func(int) string { return q })
	if err != nil {
		return nil, true, err
	}
	merged, err := shard.MergeAggregate(parts, len(keys), ops)
	if err != nil {
		return nil, true, err
	}
	// Baseline group order is first-seen row order; the merged __sgp
	// column (last) holds each group's minimum global row position.
	gp := len(merged.Schema.Columns) - 1
	sort.SliceStable(merged.Tuples, func(i, j int) bool {
		return merged.Tuples[i][gp].I < merged.Tuples[j][gp].I
	})
	// Project away the hidden keys and the position column.
	lo, hi := len(keys), len(merged.Schema.Columns)-1
	out := engine.NewRelation(engine.Schema{Columns: append([]engine.Column(nil), merged.Schema.Columns[lo:hi]...)})
	for _, t := range merged.Tuples {
		out.Tuples = append(out.Tuples, t[lo:hi])
	}
	return renameColumns(out, outNames), true, nil
}

// scatterItemOp classifies one aggregate-query projection item: a bare
// column reference must be a group key (merged as identity), and an
// aggregate call must have a distributive partial-merge (COUNT, SUM,
// MIN, MAX — no DISTINCT). Anything else disqualifies pushdown.
func scatterItemOp(e relational.Expr, keys []relational.ColumnRef) (shard.MergeOp, bool) {
	switch ex := e.(type) {
	case relational.ColumnRef:
		for _, k := range keys {
			if strings.EqualFold(k.Name, ex.Name) {
				return shard.MergeKey, true
			}
		}
	case relational.FuncCall:
		op, ok := scatterAggOps[ex.Name]
		if !ok || ex.Distinct {
			return 0, false
		}
		for _, a := range ex.Args {
			if relational.HasAggregate(a) {
				return 0, false
			}
		}
		return op, true
	}
	return 0, false
}

// shardSQL renders the per-shard query sent over the wire: same island,
// the shard's partition substituted for the table, the given projection
// items, and the original WHERE.
func (p *Polystore) shardSQL(island Island, name string, sel *relational.Select, items []string, groupBy string) string {
	var sb strings.Builder
	sb.WriteString(string(island))
	sb.WriteString("(SELECT ")
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(name)
	if sel.From.Alias != "" {
		sb.WriteString(" ")
		sb.WriteString(sel.From.Alias)
	}
	if sel.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(relational.FormatExpr(sel.Where))
	}
	if groupBy != "" {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(groupBy)
	}
	sb.WriteString(")")
	return sb.String()
}

// renameColumns overwrites a result's column names with the baseline
// output names (shard-side aliases and reformatted expressions would
// otherwise leak into the merged schema).
func renameColumns(rel *engine.Relation, names []string) *engine.Relation {
	if len(names) != len(rel.Schema.Columns) {
		return rel
	}
	cols := make([]engine.Column, len(names))
	for i, c := range rel.Schema.Columns {
		c.Name = names[i]
		cols[i] = c
	}
	rel.Schema = engine.Schema{Columns: cols}
	return rel
}

// IsShardFailure reports whether err wraps a *ShardFailure, returning
// it.
func IsShardFailure(err error) (*ShardFailure, bool) {
	var sf *ShardFailure
	if errors.As(err, &sf) {
		return sf, true
	}
	return nil, false
}
