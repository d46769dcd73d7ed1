package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvstore"
	"repro/internal/relational"
	"repro/internal/tiledb"
	"repro/internal/trace"
)

// CastOptions tunes a CAST.
type CastOptions struct {
	// TargetName overrides the minted temp name for the migrated copy.
	TargetName string
	// ArrayDims names the dimension columns when casting into the array
	// engine; when empty, all leading INT columns are used (with a
	// synthesized row-number dimension if there are none).
	ArrayDims []string
	// Dense requests dense storage for array targets.
	Dense bool
	// Predicate, when non-empty, filters the migration at the source: a
	// SQL expression (the shared predicate dialect every island's filter
	// speaks via relational.CompileRowExpr) over the source object's own
	// column names. Only rows satisfying it cross the wire. Relational
	// sources evaluate it with the vectorized filter kernels on the
	// column cache; array sources translate it to a native filter();
	// every other engine filters the dumped relation before encoding.
	// For SciDB targets the predicate is evaluated on the cells the
	// loader will build (dim columns coerced to int coordinates,
	// coordinate collisions resolved last-write-wins) rather than the
	// raw rows, so pre-wire filtering commutes with the lossy
	// relation→array transformation; dense SciDB loads ignore the
	// predicate entirely (pre-filtering would change the inferred
	// domain's fill cells), and TileDB targets reject it (their load is
	// lossy the same way, with no cell-faithful filter). A SciDB-target
	// predicate matching zero rows errors — arrays cannot be empty —
	// rather than silently migrating everything; the planner falls back
	// to a full cast itself in that case. Set by the cross-island
	// pushdown planner, usable directly too.
	Predicate string
	// Columns, when non-empty, projects the migrated copy down to these
	// source columns (in the given order) before the wire.
	Columns []string
}

// CastResult describes a completed migration.
type CastResult struct {
	Object   string
	From, To EngineKind
	Target   string // logical (and physical) name of the migrated copy
	// Rows counts rows actually moved; RowsScanned counts source rows
	// examined. With predicate pushdown the two diverge — their ratio is
	// the selectivity the planner exploited.
	Rows        int
	RowsScanned int
	Bytes       int64
	// Retries counts attempts beyond the first that this migration spent
	// on faults classified transient.
	Retries int
	// Pushed reports whether a source-side predicate or projection
	// actually applied before the wire (the CastStats split, per cast).
	Pushed  bool
	Elapsed time.Duration
}

// Cast migrates a catalog object to another engine, registering the
// copy under a new name and returning it. The source object remains in
// place (the paper defers replication/transactions to future work, so
// CAST copies).
func (p *Polystore) Cast(object string, to EngineKind, opts CastOptions) (CastResult, error) {
	return p.CastCtx(context.Background(), object, to, opts)
}

// CastCtx is Cast with cancellation, deadlines and fault tolerance.
// The migration is atomic: the copy loads under an unregistered stage
// name and is renamed + registered only once fully landed, so an error
// or cancellation anywhere in dump → encode → decode → load → commit
// leaves the catalog and every engine exactly as they were. Faults
// classified transient (see IsTransientError) are retried with
// exponential backoff within the polystore's RetryPolicy; each retry
// restarts from a clean slate.
func (p *Polystore) CastCtx(ctx context.Context, object string, to EngineKind, opts CastOptions) (CastResult, error) {
	// A sharded source is first gathered from its shards into a local
	// temp copy (original row order restored), then cast normally; the
	// temp is reclaimed before returning.
	if _, sharded := p.PlacementOf(object); sharded {
		tmp, err := p.gatherToTemp(ctx, object)
		if tmp != "" {
			defer p.dropTempObjects([]string{tmp})
		}
		if err != nil {
			return CastResult{Object: object, From: EnginePostgres, To: to}, err
		}
		res, err := p.CastCtx(ctx, tmp, to, opts)
		res.Object = object
		return res, err
	}
	start := time.Now()
	info, ok := p.Lookup(object)
	if !ok {
		return CastResult{}, fmt.Errorf("core: unknown object %q", object)
	}
	res := CastResult{Object: object, From: info.Engine, To: to}
	// TileDB loads re-key rows lossily (dim columns coerced with AsInt,
	// coordinate collisions overwritten) and, unlike SciDB targets, have
	// no cell-faithful filter — a raw-row predicate would not commute
	// with the load. Refuse rather than migrate the wrong cells; filter
	// after the cast instead. The planner never emits this combination.
	if opts.Predicate != "" && to == EngineTileDB {
		return res, fmt.Errorf("core: CastOptions.Predicate is not supported for TileDB targets (lossy coordinate load); filter after the cast")
	}
	ctx, cspan := trace.Start(ctx, "cast")
	defer cspan.End()
	cspan.SetStr("object", object)
	cspan.SetStr("from", string(info.Engine))
	cspan.SetStr("to", string(to))
	if opts.Predicate != "" {
		cspan.SetStr("predicate", opts.Predicate)
	}
	if len(opts.Columns) > 0 {
		cspan.SetStr("columns", strings.Join(opts.Columns, ","))
	}
	target := opts.TargetName
	if target == "" {
		target = p.tempName("cast")
	}
	pol := p.retryPolicy()
	for attempt := 0; ; attempt++ {
		actx, aspan := trace.Start(ctx, "attempt")
		aspan.SetInt("n", int64(attempt))
		err := p.castOnce(actx, info, to, target, opts, &res)
		if err != nil {
			aspan.SetStr("error", err.Error())
		}
		aspan.End()
		if err == nil {
			res.Target = target
			res.Elapsed = time.Since(start)
			p.finishCast(cspan, &res, nil)
			return res, nil
		}
		if ctx.Err() != nil || !IsTransientError(err) || attempt+1 >= pol.MaxAttempts {
			res.Elapsed = time.Since(start)
			p.finishCast(cspan, &res, err)
			return res, err
		}
		if serr := sleepCtx(ctx, pol.backoff(attempt)); serr != nil {
			res.Elapsed = time.Since(start)
			p.finishCast(cspan, &res, serr)
			return res, serr
		}
		res.Retries++
		p.om.castRetries.Inc()
	}
}

// finishCast settles a migration's observability: the cast span gets
// its byte/row/pushdown annotations and the registry its counters. A
// failed migration counts only as an error — bytes and rows that never
// landed are not added to the moved totals.
func (p *Polystore) finishCast(sp *trace.Span, res *CastResult, err error) {
	sp.SetInt("wire_bytes", res.Bytes)
	sp.SetInt("rows_scanned", int64(res.RowsScanned))
	sp.SetInt("rows_moved", int64(res.Rows))
	if res.Retries > 0 {
		sp.SetInt("retries", int64(res.Retries))
	}
	if err != nil {
		sp.SetStr("outcome", "error")
		p.om.castErrors.Inc()
		return
	}
	if res.Pushed {
		sp.SetStr("pushdown", "pushed")
	} else {
		sp.SetStr("pushdown", "full")
	}
	p.om.castCount.Inc()
	p.om.castLatency.Observe(res.Elapsed)
	p.om.castBytes.Add(res.Bytes)
	p.om.castRowsScanned.Add(int64(res.RowsScanned))
	p.om.castRowsMoved.Add(int64(res.Rows))
}

// castOnce runs one migration attempt into target: dump the source as
// a column batch, move it over the wire, stage it under an unregistered
// name, commit. Any error leaves zero trace: the staged copy is dropped
// before returning, and nothing registers in the catalog until commit.
// res fields describing the attempt (RowsScanned, Bytes, Rows) are
// overwritten per attempt.
func (p *Polystore) castOnce(ctx context.Context, info ObjectInfo, to EngineKind, target string, opts CastOptions, res *CastResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fault.Hit(FpCastDump); err != nil {
		return err
	}
	stage := p.tempName("stage")
	_, dspan := trace.Start(ctx, "dump")
	cb, scanned, applied, err := p.dumpBatch(info, to, opts)
	dspan.End()
	if err != nil {
		return err
	}
	res.RowsScanned = scanned
	res.Pushed = applied

	wctx, wspan := trace.Start(ctx, "wire")
	out, nbytes, err := castWire(wctx, cb)
	wspan.SetInt("bytes", nbytes)
	wspan.End()
	if err != nil {
		return err
	}
	res.Bytes = nbytes

	_, lspan := trace.Start(ctx, "load")
	err = p.stageBatch(ctx, to, stage, out, opts)
	lspan.End()
	if err != nil {
		p.rollback(ctx, to, stage)
		return err
	}
	if err := p.commitStage(ctx, to, stage, target); err != nil {
		p.rollback(ctx, to, stage)
		return err
	}
	p.countCast(applied)
	res.Rows = out.NumRows
	return nil
}

// rollback discards a staged copy after a failed attempt — the
// compensating half of the atomic cast — recording the event as a span
// and in the rollback counter.
func (p *Polystore) rollback(ctx context.Context, to EngineKind, stage string) {
	_, sp := trace.Start(ctx, "rollback")
	p.dropPhysical(to, stage)
	p.om.castRollbacks.Inc()
	sp.End()
}

// commitStage makes a fully-landed staged copy visible as target: the
// physical object is renamed (refusing to clobber an existing one) and
// only then registered in the catalog. Until the rename, a crash or
// fault costs nothing but the unregistered stage object, which the
// caller drops.
func (p *Polystore) commitStage(ctx context.Context, to EngineKind, stage, target string) error {
	_, sp := trace.Start(ctx, "commit")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fault.Hit(FpCastCommit); err != nil {
		return err
	}
	if err := p.renamePhysical(to, stage, target); err != nil {
		return err
	}
	if err := p.Register(target, to, target); err != nil {
		// The logical name is taken. The rename proved the physical
		// target name was free, so the renamed stage is ours to discard.
		p.dropPhysical(to, target)
		return err
	}
	return nil
}

// renamePhysical renames an engine-resident object. Physical names
// track logical names everywhere (islands splice them into engine
// queries), so commit renames rather than repointing the catalog.
func (p *Polystore) renamePhysical(eng EngineKind, oldName, newName string) error {
	switch eng {
	case EnginePostgres:
		return p.Relational.RenameTable(oldName, newName)
	case EngineSciDB:
		return p.ArrayStore.Rename(oldName, newName)
	case EngineAccumulo:
		return p.KV.Rename(oldName, newName)
	case EngineTileDB:
		p.mu.Lock()
		defer p.mu.Unlock()
		ok, nk := strings.ToLower(oldName), strings.ToLower(newName)
		a, found := p.tile[ok]
		if !found {
			return fmt.Errorf("core: no tiledb array %q", oldName)
		}
		if _, taken := p.tile[nk]; taken && nk != ok {
			return fmt.Errorf("core: tiledb array %q already exists", newName)
		}
		delete(p.tile, ok)
		a.Name = newName
		p.tile[nk] = a
		return nil
	default:
		return fmt.Errorf("core: cannot rename in engine %q", eng)
	}
}

// dropPhysical removes an engine-resident object, ignoring absence —
// rollback for staged copies that never reached the catalog.
func (p *Polystore) dropPhysical(eng EngineKind, name string) {
	switch eng {
	case EnginePostgres:
		_ = p.Relational.DropTable(name)
	case EngineSciDB:
		_ = p.ArrayStore.Remove(name)
	case EngineAccumulo:
		_ = p.KV.DropTable(name)
	case EngineTileDB:
		p.mu.Lock()
		delete(p.tile, strings.ToLower(name))
		p.mu.Unlock()
	}
}

// countCast records one completed migration in the pushed/full split
// CastStats reports. It runs only once the copy has landed — a failed
// migration counts as neither — and pushed means the shipped relation
// actually went through a source-side filter or a non-identity
// projection: a requested pushdown that was a no-op (cell filter with
// no dims, identity projection) or that failed and was retried in full
// counts as full, so the stats never over-report planner engagement.
func (p *Polystore) countCast(pushed bool) {
	if pushed {
		p.om.castPushed.Inc()
	} else {
		p.om.castFull.Inc()
	}
}

// dumpBatch exports a catalog object as the column batch the wire
// carries, with the cast's predicate and projection applied at (or as
// close as possible to) the source — the egress half of pushdown.
// Relational sources hand out their column cache, filtered by the
// vectorized kernels: no per-row Tuple is ever boxed on that leg. Every
// other engine dumps rows (dumpFiltered) and converts. A SciDB-target
// predicate also takes the row form, whatever the source: it must see
// the post-cast cells (see scidbCellFilter), not the raw rows the
// column-cache filter sees. scanned reports source rows examined before
// filtering; applied reports whether any filtering or projection
// actually ran.
func (p *Polystore) dumpBatch(info ObjectInfo, to EngineKind, opts CastOptions) (*engine.ColumnBatch, int, bool, error) {
	if info.Engine == EnginePostgres && !(opts.Predicate != "" && to == EngineSciDB) {
		return p.Relational.DumpBatchWhere(info.Physical, opts.Predicate, opts.Columns)
	}
	rel, scanned, applied, err := p.dumpFiltered(info, to, opts)
	if err != nil {
		return nil, scanned, false, err
	}
	return engine.BatchFromRelation(rel), scanned, applied, nil
}

// dumpFiltered is the row-form dump behind dumpBatch. Array sources
// translate the predicate into the engine's native filter() operator;
// every other engine dumps and filters the relation.
func (p *Polystore) dumpFiltered(info ObjectInfo, to EngineKind, opts CastOptions) (*engine.Relation, int, bool, error) {
	if opts.Predicate == "" && len(opts.Columns) == 0 {
		rel, err := p.Dump(info.Name)
		if err != nil {
			return nil, 0, false, err
		}
		return rel, rel.Len(), false, nil
	}
	// SciDB targets: the loader re-keys the shipped rows into cells
	// (dim values coerced to int coordinates, coordinate collisions
	// overwritten), so a predicate filtered over the raw rows does not
	// commute with filtering the landed array. Evaluate it on the cells
	// the loader will build instead — whatever the source engine.
	if opts.Predicate != "" && to == EngineSciDB {
		rel, err := p.Dump(info.Name)
		if err != nil {
			return nil, 0, false, err
		}
		scanned := rel.Len()
		projected, err := projectRelation(rel, opts.Columns)
		if err != nil {
			return nil, scanned, false, err
		}
		applied := projected != rel
		rel = projected
		if !opts.Dense { // dense loads materialize domain fill cells; pre-filtering would change them
			filtered, ok, err := scidbCellFilter(rel, opts.Predicate, opts.ArrayDims)
			if err != nil {
				return nil, scanned, false, err
			}
			rel, applied = filtered, applied || ok
		}
		return rel, scanned, applied, nil
	}
	switch info.Engine {
	case EngineSciDB:
		a, err := p.ArrayStore.Get(info.Physical)
		if err != nil {
			return nil, 0, false, err
		}
		scanned := int(a.Count())
		applied := false
		if opts.Predicate != "" {
			// The array island's filter() dialect is the same SQL
			// expression grammar, so the predicate passes through verbatim.
			a, err = a.Filter(opts.Predicate)
			if err != nil {
				return nil, scanned, false, err
			}
			applied = true
		}
		scanRel := a.Scan()
		rel, err := projectRelation(scanRel, opts.Columns)
		return rel, scanned, applied || rel != scanRel, err
	default:
		rel, err := p.Dump(info.Name)
		if err != nil {
			return nil, 0, false, err
		}
		scanned := rel.Len()
		out, err := filterProjectRelation(rel, opts.Predicate, opts.Columns)
		return out, scanned, out != rel, err
	}
}

// scidbCellFilter filters rel as the SciDB loader will see it: dim
// columns (ArrayDims, or the leading INT columns exactly like
// Polystore.Load) coerced to their int coordinates, coordinate
// collisions resolved last-write-wins, the predicate evaluated on the
// final cell of each coordinate — dims first, then attributes, the
// cell schema Array.Filter exposes. Only final-writer rows whose cell
// passes are shipped, so filtering before the wire commutes with the
// lossy relation→array transformation (NULL dims coerce to 0,
// colliding rows overwrite) and the island's own filter() over the
// landed copy is a no-op re-check. When the loader would synthesize a
// row-number dimension (no leading INT column), pre-filtering would
// renumber it, so the relation ships unfiltered (filtered=false).
func scidbCellFilter(rel *engine.Relation, predicate string, dimNames []string) (*engine.Relation, bool, error) {
	dims := dimNames
	if len(dims) == 0 {
		dims = leadingIntColumns(rel)
	}
	if len(dims) == 0 {
		return rel, false, nil
	}
	dimIdx := make([]int, len(dims))
	isDim := map[int]bool{}
	for i, dn := range dims {
		j := rel.Schema.Index(dn)
		if j < 0 {
			return nil, false, fmt.Errorf("core: pushdown: no dim column %q", dn)
		}
		dimIdx[i] = j
		isDim[j] = true
	}
	var attrIdx []int
	cellCols := make([]engine.Column, 0, len(rel.Schema.Columns))
	for _, j := range dimIdx {
		cellCols = append(cellCols, engine.Col(rel.Schema.Columns[j].Name, engine.TypeInt))
	}
	for j, c := range rel.Schema.Columns {
		if !isDim[j] {
			attrIdx = append(attrIdx, j)
			cellCols = append(cellCols, c)
		}
	}
	ev, err := relational.CompileRowExpr(predicate, cellCols)
	if err != nil {
		return nil, false, fmt.Errorf("core: pushdown predicate: %w", err)
	}

	winner := make(map[string]int, len(rel.Tuples))
	keys := make([]string, len(rel.Tuples))
	var key strings.Builder
	for i, t := range rel.Tuples {
		key.Reset()
		for _, j := range dimIdx {
			fmt.Fprintf(&key, "%d,", t[j].AsInt())
		}
		keys[i] = key.String()
		winner[keys[i]] = i
	}
	kept := rel.Tuples[:0:0]
	cell := make(engine.Tuple, len(cellCols))
	for i, t := range rel.Tuples {
		if winner[keys[i]] != i {
			continue // overwritten by a later row at the same coordinate
		}
		for k, j := range dimIdx {
			cell[k] = engine.NewInt(t[j].AsInt())
		}
		for k, j := range attrIdx {
			cell[len(dimIdx)+k] = t[j]
		}
		v, err := ev(cell)
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.AsBool() {
			kept = append(kept, t)
		}
	}
	return &engine.Relation{Schema: rel.Schema, Tuples: kept}, true, nil
}

// filterProjectRelation applies a pushdown predicate and projection to
// an already-dumped relation — the generic fallback for engines with no
// native filtered scan (kv range scans excepted, stream windows,
// TileDB). The input relation is consumed (tuples may be re-sliced).
func filterProjectRelation(rel *engine.Relation, predicate string, columns []string) (*engine.Relation, error) {
	if predicate != "" {
		ev, err := relational.CompileRowExpr(predicate, rel.Schema.Columns)
		if err != nil {
			return nil, fmt.Errorf("core: pushdown predicate: %w", err)
		}
		kept := rel.Tuples[:0:0]
		for _, t := range rel.Tuples {
			v, err := ev(t)
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && v.AsBool() {
				kept = append(kept, t)
			}
		}
		rel = &engine.Relation{Schema: rel.Schema, Tuples: kept}
	}
	return projectRelation(rel, columns)
}

// projectRelation restricts a relation to the named columns, in order.
func projectRelation(rel *engine.Relation, columns []string) (*engine.Relation, error) {
	if len(columns) == 0 {
		return rel, nil
	}
	idx := make([]int, len(columns))
	cols := make([]engine.Column, len(columns))
	identity := len(columns) == len(rel.Schema.Columns)
	for k, name := range columns {
		j := rel.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("core: pushdown projection: no column %q", name)
		}
		idx[k] = j
		cols[k] = rel.Schema.Columns[j]
		if j != k {
			identity = false
		}
	}
	if identity {
		return rel, nil
	}
	out := engine.NewRelation(engine.Schema{Columns: cols})
	out.Tuples = make([]engine.Tuple, len(rel.Tuples))
	arena := make([]engine.Value, len(rel.Tuples)*len(idx))
	for i, t := range rel.Tuples {
		row := arena[i*len(idx) : (i+1)*len(idx) : (i+1)*len(idx)]
		for k, j := range idx {
			row[k] = t[j]
		}
		out.Tuples[i] = row
	}
	return out, nil
}

// parallelCastRows is the cardinality at which the transport switches
// from a single decoder to parallel frame decoding.
const parallelCastRows = 50_000

// countingWriter tracks how many bytes crossed the transport so CAST
// byte accounting no longer requires materialising the stream.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// transportErr settles the error of a finished transport. The
// encoder's error is preferred as the root cause: when the encoder
// failed first the decoder only ever sees its echo wrapped as stream
// corruption (which would hide an injected fault's transient
// classification), and when the decoder failed first the encoder
// reports the identical error echoed back through the closed pipe. A
// done context trumps both — cancellation is the cause, whatever the
// pipe surfaced first.
func transportErr(ctx context.Context, decodeErr, encodeErr error) error {
	err := decodeErr
	if encodeErr != nil {
		err = encodeErr
	}
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	}
	return err
}

// castWire is the CAST transport — the paper's direct binary cast: cb
// streams through the v2 wire format with the encoder and decoder
// running concurrently over an io.Pipe, so it costs max(encode, decode)
// rather than their sum and never stages the whole stream. One wire
// frame decodes into one columnar mini-batch (allocation per frame, not
// per row); large batches additionally fan frame decoding out across
// CPUs. The write side counts bytes and carries the FpCastPipe fault
// interposer. Cancelling ctx tears both goroutines down, and neither
// outlives the call.
func castWire(ctx context.Context, cb *engine.ColumnBatch) (*engine.ColumnBatch, int64, error) {
	parent := trace.FromContext(ctx)
	pr, pw := io.Pipe()
	cw := &countingWriter{w: pw}
	w := fault.Wrap(FpCastPipe, cw)
	if ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				// Both ends of the pipe fail from here on: the encoder's
				// next Write and the decoder's next Read return ctx.Err(),
				// so both goroutines unwind promptly.
				pr.CloseWithError(ctx.Err())
			case <-stop:
			}
		}()
	}
	encodeErr := make(chan error, 1)
	go func() {
		enc := parent.StartChild("encode")
		err := cb.WriteBinary(w)
		pw.CloseWithError(err)
		// End before the send: the main goroutine may inspect or render
		// the trace as soon as it reads encodeErr, and an open span there
		// would be an orphan.
		enc.End()
		encodeErr <- err
	}()
	dec := parent.StartChild("decode")
	workers := 1
	if cb.NumRows >= parallelCastRows {
		workers = runtime.GOMAXPROCS(0)
	}
	out, err := engine.ReadBinaryColumnar(pr, workers)
	dec.End()
	if err != nil {
		// Unblock the encoder if it is still mid-stream, then reap it.
		pr.CloseWithError(err)
		return nil, 0, transportErr(ctx, err, <-encodeErr)
	}
	if werr := <-encodeErr; werr != nil {
		return nil, 0, werr
	}
	return out, cw.n, nil
}

// stageBatch lands the decoded batch under an unregistered stage name —
// the ingress half of CAST. The relational engine ingests the columns
// directly; every other engine takes the arena-materialised relation
// (two allocations for all tuples, not one per row) through
// loadPhysical. Both arms evaluate the same failpoints in the same
// order, armed or not.
func (p *Polystore) stageBatch(ctx context.Context, to EngineKind, stage string, cb *engine.ColumnBatch, opts CastOptions) error {
	if to != EnginePostgres {
		return p.loadPhysical(ctx, to, stage, cb.ToRelation(), opts)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fault.Hit(FpCastLoad); err != nil {
		return err
	}
	if err := p.Relational.InsertBatch(stage, cb); err != nil {
		return err
	}
	return fault.Hit(FpCastLoadMid)
}

// Load materialises a relation as a new object in the target engine and
// registers it in the catalog — the ingress half of CAST.
func (p *Polystore) Load(to EngineKind, name string, rel *engine.Relation, opts CastOptions) error {
	return p.LoadCtx(context.Background(), to, name, rel, opts)
}

// LoadCtx is Load with cancellation. Like CastCtx it is atomic: the
// relation lands under an unregistered stage name and is renamed +
// registered only once complete, so a failed or cancelled load leaves
// no partial object in the engine and no catalog entry.
func (p *Polystore) LoadCtx(ctx context.Context, to EngineKind, name string, rel *engine.Relation, opts CastOptions) error {
	stage := p.tempName("stage")
	if err := p.loadPhysical(ctx, to, stage, rel, opts); err != nil {
		p.rollback(ctx, to, stage)
		return err
	}
	if err := p.commitStage(ctx, to, stage, name); err != nil {
		p.rollback(ctx, to, stage)
		return err
	}
	return nil
}

// loadPhysical materialises a relation in the target engine under name
// without touching the catalog — the staging half of every load.
// Every engine evaluates FpCastLoadMid once physical state exists under
// name (the kv loader part-way through, the others with the copy
// landed), so fault schedules strand an object for rollback to discard.
func (p *Polystore) loadPhysical(ctx context.Context, to EngineKind, name string, rel *engine.Relation, opts CastOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fault.Hit(FpCastLoad); err != nil {
		return err
	}
	switch to {
	case EnginePostgres:
		if err := p.Relational.InsertRelation(name, rel); err != nil {
			return err
		}
		if err := fault.Hit(FpCastLoadMid); err != nil {
			return err
		}
	case EngineSciDB:
		dims := opts.ArrayDims
		if len(dims) == 0 {
			dims = leadingIntColumns(rel)
		}
		work := rel
		if len(dims) == 0 {
			// Synthesize a row-number dimension.
			work = withRowNumber(rel)
			dims = []string{"i"}
		}
		a, err := array.FromRelation(name, work, dims, opts.Dense)
		if err != nil {
			return err
		}
		p.ArrayStore.Put(a)
		if err := fault.Hit(FpCastLoadMid); err != nil {
			return err
		}
	case EngineAccumulo:
		if err := p.loadKV(name, rel); err != nil {
			return err
		}
	case EngineTileDB:
		a, err := relationToTileDB(name, rel)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.tile[strings.ToLower(name)] = a
		p.mu.Unlock()
		if err := fault.Hit(FpCastLoadMid); err != nil {
			return err
		}
	case EngineSStore:
		return fmt.Errorf("core: cannot CAST into the streaming engine; streams ingest via TCP or Append")
	default:
		return fmt.Errorf("core: unknown target engine %q", to)
	}
	return nil
}

// loadKV stores a relation in the key-value engine. Relations already
// in the kvstore dump shape load natively; anything else maps row i,
// column c to (row=<first column value>, family="data", qualifier=<column
// name>, value=<cell>) — the generic D4M-style exploded layout.
//
// Keys and timestamps are derived purely from cell content, never from
// the row's position in the relation: a filtered (pushdown) migration
// must produce the same entries for the rows it keeps as a full
// migration would, or the planner's row-range pushdown would change
// scan results.
func (p *Polystore) loadKV(name string, rel *engine.Relation) error {
	if isKVDumpShape(rel.Schema) {
		return p.KV.LoadRelation(name, rel)
	}
	if len(rel.Schema.Columns) < 2 {
		return fmt.Errorf("core: relation needs ≥ 2 columns to load into accumulo")
	}
	if err := p.KV.CreateTable(name); err != nil {
		return err
	}
	// The table now exists with no entries — the half-loaded state a
	// fault here strands for rollback to discard.
	if err := fault.Hit(FpCastLoadMid); err != nil {
		return err
	}
	var es []kvstore.Entry
	for _, t := range rel.Tuples {
		rowKey := t[0].String()
		for j := 1; j < len(t); j++ {
			es = append(es, kvstore.Entry{
				Key: kvstore.Key{
					Row: rowKey, Family: "data",
					Qualifier: rel.Schema.Columns[j].Name, Timestamp: 0,
				},
				Value: t[j].String(),
			})
		}
	}
	return p.KV.PutBatch(name, es)
}

func isKVDumpShape(s engine.Schema) bool {
	want := []string{"row", "family", "qualifier", "ts", "value"}
	if len(s.Columns) != len(want) {
		return false
	}
	for i, n := range want {
		if !strings.EqualFold(s.Columns[i].Name, n) {
			return false
		}
	}
	return true
}

// leadingIntColumns returns the names of the leading INT columns, which
// serve as array dimensions by convention (at least one non-dimension
// attribute column must remain).
func leadingIntColumns(rel *engine.Relation) []string {
	var dims []string
	for _, c := range rel.Schema.Columns {
		if c.Type != engine.TypeInt {
			break
		}
		dims = append(dims, c.Name)
	}
	if len(dims) == len(rel.Schema.Columns) && len(dims) > 0 {
		dims = dims[:len(dims)-1] // keep the last column as the attribute
	}
	return dims
}

func withRowNumber(rel *engine.Relation) *engine.Relation {
	cols := append([]engine.Column{engine.Col("i", engine.TypeInt)}, rel.Schema.Columns...)
	out := engine.NewRelation(engine.Schema{Columns: cols})
	out.Tuples = make([]engine.Tuple, len(rel.Tuples))
	for i, t := range rel.Tuples {
		row := make(engine.Tuple, 0, len(t)+1)
		row = append(row, engine.NewInt(int64(i)))
		row = append(row, t...)
		out.Tuples[i] = row
	}
	return out
}

// relationToTileDB loads (int dims..., float value) rows into a fresh
// TileDB array.
func relationToTileDB(name string, rel *engine.Relation) (*tiledb.Array, error) {
	if rel.Len() == 0 {
		return nil, fmt.Errorf("core: cannot infer tiledb domain from empty relation")
	}
	nd := len(rel.Schema.Columns) - 1
	if nd < 1 {
		return nil, fmt.Errorf("core: tiledb load needs ≥ 2 columns (dims + value)")
	}
	lo := make([]int64, nd)
	hi := make([]int64, nd)
	for i := 0; i < nd; i++ {
		lo[i], hi[i] = 1<<62, -1<<62
	}
	cells := make([]tiledb.Cell, 0, rel.Len())
	for _, t := range rel.Tuples {
		coords := make([]int64, nd)
		for i := 0; i < nd; i++ {
			coords[i] = t[i].AsInt()
			if coords[i] < lo[i] {
				lo[i] = coords[i]
			}
			if coords[i] > hi[i] {
				hi[i] = coords[i]
			}
		}
		cells = append(cells, tiledb.Cell{Coords: coords, Value: t[nd].AsFloat()})
	}
	a, err := tiledb.NewArray(name, tiledb.Box{Lo: lo, Hi: hi}, 0.5)
	if err != nil {
		return nil, err
	}
	if err := a.Write(cells); err != nil {
		return nil, err
	}
	return a, nil
}

// Migrate moves an object permanently: cast to the target engine under
// the same logical name (with a fresh physical name), then repoint the
// catalog — the operation the monitoring system (§2.1) recommends.
func (p *Polystore) Migrate(object string, to EngineKind, opts CastOptions) (CastResult, error) {
	return p.MigrateCtx(context.Background(), object, to, opts)
}

// MigrateCtx is Migrate with cancellation and the atomic-cast
// guarantees of CastCtx: a failed or cancelled migration leaves the
// object exactly where it was.
func (p *Polystore) MigrateCtx(ctx context.Context, object string, to EngineKind, opts CastOptions) (CastResult, error) {
	info, ok := p.Lookup(object)
	if !ok {
		return CastResult{}, fmt.Errorf("core: unknown object %q", object)
	}
	if info.Engine == to {
		return CastResult{Object: object, From: to, To: to, Target: info.Physical}, nil
	}
	opts.TargetName = p.tempName("mig_" + object)
	res, err := p.CastCtx(ctx, object, to, opts)
	if err != nil {
		return res, err
	}
	// Repoint the logical name at the migrated copy, and only then drop
	// the source's physical copy: a migration moves the object, so each
	// object keeps exactly one home, and a failure anywhere above has
	// left the source untouched. (Streams have no drop; a migrated
	// stream's window keeps ingesting, unregistered.)
	p.mu.Lock()
	delete(p.catalog, strings.ToLower(res.Target))
	p.catalog[strings.ToLower(object)] = ObjectInfo{Name: object, Engine: to, Physical: res.Target}
	p.mu.Unlock()
	p.dropPhysical(info.Engine, info.Physical)
	res.Target = object
	return res, nil
}
