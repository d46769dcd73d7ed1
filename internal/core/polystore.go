// Package core implements the BigDAWG polystore middleware itself: the
// catalog of data objects and their homes, the islands of information
// (Figure 1 of the paper), the SCOPE/CAST query language, shims between
// islands and engines, and the data migrator behind CAST.
//
// The reference implementation hosts eight islands, matching §2.1.1:
//
//	RELATIONAL — multi-engine SQL island (Postgres + SciDB via shims)
//	ARRAY      — multi-engine AFL island (SciDB + TileDB via shims)
//	D4M        — associative arrays over Accumulo/SciDB/Postgres
//	MYRIA      — relational algebra + iteration over Postgres/SciDB
//	POSTGRES   — degenerate island: full native SQL
//	SCIDB      — degenerate island: full native AFL
//	ACCUMULO   — degenerate island: scans + text search commands
//	SSTORE     — degenerate island: stream window commands
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/array"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/relational"
	"repro/internal/stream"
	"repro/internal/tiledb"
)

// EngineKind names a storage engine in the federation.
type EngineKind string

// The storage engines of the reference implementation (§1.1, §2.5).
const (
	EnginePostgres EngineKind = "postgres" // internal/relational
	EngineSciDB    EngineKind = "scidb"    // internal/array
	EngineAccumulo EngineKind = "accumulo" // internal/kvstore
	EngineSStore   EngineKind = "sstore"   // internal/stream
	EngineTileDB   EngineKind = "tiledb"   // internal/tiledb
)

// ObjectInfo is one catalog entry: a logical data object and where it
// physically lives.
type ObjectInfo struct {
	Name     string     // logical name, unique across the federation
	Engine   EngineKind // home engine
	Physical string     // engine-local name
}

// Polystore is the federation: engines, catalog, monitor and islands.
// Build one with New — the metrics plumbing is wired there.
type Polystore struct {
	Relational *relational.DB
	ArrayStore *array.Store
	KV         *kvstore.Store
	Streams    *stream.Engine
	Monitor    *monitor.Monitor

	// Metrics is the polystore's registry: every counter and histogram
	// the execution path populates, plus pull gauges over the engines'
	// own stats. Export it with Metrics.PublishExpvar.
	Metrics *metrics.Registry

	// om holds pre-created handles into Metrics for the hot path, so
	// instrumentation sites never pay a map lookup or a name build.
	om polyMetrics

	mu         sync.RWMutex
	catalog    map[string]ObjectInfo
	tile       map[string]*tiledb.Array
	tempSeq    int
	pushdown   bool
	retry      RetryPolicy
	shardEps   []ShardEndpoint
	placements map[string]Placement
}

// polyMetrics is the set of pre-resolved metric handles the execution
// path updates. All underlying values are atomics in the registry —
// RetryStats/CastStats and concurrent queries read and write them
// race-free.
type polyMetrics struct {
	queryLatency *metrics.Histogram
	queryErrors  *metrics.Counter
	queryCount   map[Island]*metrics.Counter
	classCount   map[monitor.QueryClass]*metrics.Counter

	castLatency     *metrics.Histogram
	castCount       *metrics.Counter
	castErrors      *metrics.Counter
	castRetries     *metrics.Counter
	castRollbacks   *metrics.Counter
	castBytes       *metrics.Counter
	castRowsScanned *metrics.Counter
	castRowsMoved   *metrics.Counter
	castPushed      *metrics.Counter
	castFull        *metrics.Counter

	scatterCount  *metrics.Counter
	scatterPushed *metrics.Counter
	scatterGather *metrics.Counter
}

func newPolyMetrics(r *metrics.Registry) polyMetrics {
	om := polyMetrics{
		queryLatency: r.Histogram("query.latency"),
		queryErrors:  r.Counter("query.errors"),
		queryCount:   map[Island]*metrics.Counter{},
		classCount:   map[monitor.QueryClass]*metrics.Counter{},

		castLatency:     r.Histogram("cast.latency"),
		castCount:       r.Counter("cast.count"),
		castErrors:      r.Counter("cast.errors"),
		castRetries:     r.Counter("cast.retries"),
		castRollbacks:   r.Counter("cast.rollbacks"),
		castBytes:       r.Counter("cast.wire_bytes"),
		castRowsScanned: r.Counter("cast.rows_scanned"),
		castRowsMoved:   r.Counter("cast.rows_moved"),
		castPushed:      r.Counter("cast.pushed"),
		castFull:        r.Counter("cast.full"),

		scatterCount:  r.Counter("scatter.count"),
		scatterPushed: r.Counter("scatter.pushdown"),
		scatterGather: r.Counter("scatter.gather"),
	}
	for _, isl := range []Island{IslandRelational, IslandArray, IslandD4M, IslandMyria,
		IslandPostgres, IslandSciDB, IslandAccumulo, IslandSStore} {
		om.queryCount[isl] = r.Counter("query.count." + strings.ToLower(string(isl)))
	}
	for _, qc := range []monitor.QueryClass{monitor.ClassLookup, monitor.ClassSQLAnalytics,
		monitor.ClassLinearAlgebra, monitor.ClassTextSearch, monitor.ClassStreaming} {
		om.classCount[qc] = r.Counter("query.class." + string(qc))
	}
	return om
}

// CastStats reports how many CASTs actually ran with pushdown (a
// source-side predicate or projection applied before the wire) versus
// migrating the whole object. Backed by registry counters, so reads are
// race-clean under concurrent queries.
func (p *Polystore) CastStats() (pushed, full int64) {
	return p.om.castPushed.Load(), p.om.castFull.Load()
}

// New assembles a polystore with fresh engines.
func New() *Polystore {
	reg := metrics.NewRegistry()
	p := &Polystore{
		Relational: relational.NewDB(),
		ArrayStore: array.NewStore(),
		KV:         kvstore.NewStore(),
		Streams:    stream.NewEngine(),
		Monitor:    monitor.New(),
		Metrics:    reg,
		om:         newPolyMetrics(reg),
		catalog:    map[string]ObjectInfo{},
		tile:       map[string]*tiledb.Array{},
		placements: map[string]Placement{},
		pushdown:   true,
	}
	// Pull gauges: the engines keep their own atomic stats; the registry
	// reads them at snapshot time.
	reg.GaugeFunc("engine.postgres.queries", func() int64 { return p.Relational.Stats().Queries })
	reg.GaugeFunc("engine.postgres.rows_scanned", func() int64 { return p.Relational.Stats().RowsScanned })
	reg.GaugeFunc("fault.hits", func() int64 {
		var n int64
		for _, fp := range CastFailpoints() {
			n += int64(fault.Fired(fp))
		}
		for _, fp := range CastWriteFailpoints() {
			n += int64(fault.Fired(fp))
		}
		return n
	})
	return p
}

// SetPushdown toggles the cross-island CAST pushdown planner (on by
// default). With it off, every CAST migrates its source object in full
// and the island body does all filtering after the move — the baseline
// the planner is benchmarked (and differentially tested) against.
func (p *Polystore) SetPushdown(on bool) {
	p.mu.Lock()
	p.pushdown = on
	p.mu.Unlock()
}

func (p *Polystore) pushdownOn() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pushdown
}

// SetRetryPolicy overrides the transient-fault retry budget for CASTs
// (DefaultRetryPolicy when unset or when MaxAttempts ≤ 0).
func (p *Polystore) SetRetryPolicy(rp RetryPolicy) {
	p.mu.Lock()
	p.retry = rp
	p.mu.Unlock()
}

func (p *Polystore) retryPolicy() RetryPolicy {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.retry.MaxAttempts <= 0 {
		return DefaultRetryPolicy
	}
	return p.retry
}

// RetryStats reports how many retry attempts CASTs have spent since
// the polystore was assembled — both the transient-fault retry loop and
// the planner's zero-match fallback recast. Backed by a registry
// counter, so reads are race-clean under concurrent queries.
func (p *Polystore) RetryStats() int64 { return p.om.castRetries.Load() }

// Register adds a catalog entry for an object already present in its
// home engine.
func (p *Polystore) Register(name string, eng EngineKind, physical string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := p.catalog[key]; ok {
		return fmt.Errorf("core: object %q already registered", name)
	}
	if physical == "" {
		physical = name
	}
	switch eng {
	case EnginePostgres, EngineSciDB, EngineAccumulo, EngineSStore, EngineTileDB:
	default:
		return fmt.Errorf("core: unknown engine %q", eng)
	}
	p.catalog[key] = ObjectInfo{Name: name, Engine: eng, Physical: physical}
	return nil
}

// Deregister removes a catalog entry (the physical object is left to
// the caller).
func (p *Polystore) Deregister(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.catalog, strings.ToLower(name))
}

// Lookup resolves a logical object.
func (p *Polystore) Lookup(name string) (ObjectInfo, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	info, ok := p.catalog[strings.ToLower(name)]
	return info, ok
}

// Objects lists catalog entries sorted by name.
func (p *Polystore) Objects() []ObjectInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]ObjectInfo, 0, len(p.catalog))
	for _, info := range p.catalog {
		out = append(out, info)
	}
	sortObjects(out)
	return out
}

func sortObjects(s []ObjectInfo) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PutTileDB registers a TileDB array as an engine-resident object.
func (p *Polystore) PutTileDB(a *tiledb.Array) error {
	p.mu.Lock()
	p.tile[strings.ToLower(a.Name)] = a
	p.mu.Unlock()
	return p.Register(a.Name, EngineTileDB, a.Name)
}

// TileDBArray fetches a TileDB array by name.
func (p *Polystore) TileDBArray(name string) (*tiledb.Array, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	a, ok := p.tile[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no tiledb array %q", name)
	}
	return a, nil
}

// tempName mints a fresh name for CAST intermediates.
func (p *Polystore) tempName(prefix string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tempSeq++
	return fmt.Sprintf("__%s_%d", prefix, p.tempSeq)
}

// Dump exports any catalog object as a relation, whatever engine it
// lives in — the universal egress half of CAST. Sharded objects are
// gathered from their shards in original row order.
func (p *Polystore) Dump(name string) (*engine.Relation, error) {
	if _, sharded := p.PlacementOf(name); sharded {
		return p.gatherObject(context.Background(), name)
	}
	info, ok := p.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown object %q", name)
	}
	switch info.Engine {
	case EnginePostgres:
		return p.Relational.Dump(info.Physical)
	case EngineSciDB:
		a, err := p.ArrayStore.Get(info.Physical)
		if err != nil {
			return nil, err
		}
		return a.Scan(), nil
	case EngineAccumulo:
		return p.KV.Dump(info.Physical)
	case EngineSStore:
		return p.Streams.Dump(info.Physical)
	case EngineTileDB:
		a, err := p.TileDBArray(info.Physical)
		if err != nil {
			return nil, err
		}
		return tileDBToRelation(a)
	default:
		return nil, fmt.Errorf("core: cannot dump from engine %q", info.Engine)
	}
}

func tileDBToRelation(a *tiledb.Array) (*engine.Relation, error) {
	cells, err := a.Read(a.Domain)
	if err != nil {
		return nil, err
	}
	nd := len(a.Domain.Lo)
	cols := make([]engine.Column, 0, nd+1)
	for i := 0; i < nd; i++ {
		cols = append(cols, engine.Col(fmt.Sprintf("d%d", i), engine.TypeInt))
	}
	cols = append(cols, engine.Col("v", engine.TypeFloat))
	rel := engine.NewRelation(engine.Schema{Columns: cols})
	for _, c := range cells {
		row := make(engine.Tuple, 0, nd+1)
		for _, coord := range c.Coords {
			row = append(row, engine.NewInt(coord))
		}
		row = append(row, engine.NewFloat(c.Value))
		_ = rel.Append(row)
	}
	return rel, nil
}
