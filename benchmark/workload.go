package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/mimic"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
)

// sizes are the table sizes of one run. The full sizes are what every
// committed number is measured at; the quick sizes exist so the test
// can prove all four workloads answer correctly in seconds.
type sizes struct {
	patients  int // mimic_point: patients in the demo federation
	factRows  int // rel_analytic and shard_scatter: the large table
	dimRows   int // rel_analytic: the dimension table
	castRows  int // cast_ingest: the relation and its matching array
	eventRows int // shard_scatter: the small sharded table
	params    int // queries in each shape's parameter pool
}

var (
	fullSizes  = sizes{patients: 100, factRows: 200000, dimRows: 1000, castRows: 20000, eventRows: 20000, params: 16}
	quickSizes = sizes{patients: 40, factRows: 8000, dimRows: 100, castRows: 1500, eventRows: 1500, params: 4}
)

// workload is one traffic mix. openRate is the offered rate of the
// open loop in queries per second: frozen at about half of the seed
// commit's closed-loop qps on the reference box, never recomputed from
// a run, so a later commit is measured at the same offered load.
type workload struct {
	name     string
	why      string
	openRate float64
	build    func(seed int64, sz sizes) (*fixture, error)
}

var workloads = []workload{
	{
		name: "mimic_point", openRate: 3000, build: buildMimicPoint,
		why: "the paper's MIMIC II demo federation, nine sub-millisecond shapes across every island: " +
			"wire, admission, parse, plan and dispatch are most of the latency, kernels almost none",
	},
	{
		name: "rel_analytic", openRate: 110, build: buildRelAnalytic,
		why: "filtered count, group-by, join and 1% scan over a 200k-row table, column cache hot: " +
			"the vectorized relational kernels do the work, server and core little",
	},
	{
		name: "cast_ingest", openRate: 60, build: buildCastIngest,
		why: "full, pushed-down and array-to-relation CASTs plus a 20k-row fetch, every 8th operation an INSERT " +
			"into the CAST source: codec, staged commit and column-cache rebuild beside reads",
	},
	{
		name: "shard_scatter", openRate: 85, build: buildShardScatter,
		why: "the 200k-row table hash-partitioned over 4 shard servers behind a coordinator: pushed count and " +
			"group-by, a 10k-row ordered gather and a gather-fallback query, clients <= cores",
	},
}

// describe is the workload's one-line why in BENCHMARK.json: the
// reason it exists and the frozen open-loop rate.
func (w workload) describe() string {
	return fmt.Sprintf("%s (open loop at %.0f qps)", w.why, w.openRate)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is one query template of a workload with its parameter pool
// and the oracle's answer to each pooled query.
type shape struct {
	name    string
	queries []string
	want    []answer
	// ordered means row order is part of the answer: the query orders
	// its result, or the scatter tier promises the unsharded row order.
	ordered bool
	// insert marks the write shape: every call mints a fresh row, so it
	// has no pool; the expected response is the engine's "inserted 1".
	insert bool
	// moved is the relation the shape's CAST carries between engines,
	// for replaying the codec on the same payload; nil means the only
	// relation that crosses a wire is the response itself.
	moved *engine.Relation
	// mergeKeys and mergeOps describe the partial-state layout the
	// scatter tier ships for an aggregate shape, for replaying
	// shard.MergeAggregate on captured partials.
	mergeKeys int
	mergeOps  []shard.MergeOp
}

// fixture is one set-up workload: the served polystore, the shapes
// with their oracle answers, and what to tear down.
type fixture struct {
	workload string
	poly     *core.Polystore // what addr serves; the coordinator on shard_scatter
	oracle   *core.Polystore // computes the answers in process; poly unless sharded
	// nodes are the polystores whose relational engines scan rows for
	// this workload's queries: poly, plus the shard nodes when sharded.
	nodes []*core.Polystore
	addr  string
	// directAddr serves an unsharded copy of the same tables, so the
	// coordinator tier's cost is a ratio of two measured round trips.
	directAddr string
	shapes     []*shape
	mix        []int // one round of operations, as indexes into shapes
	capture    *capture
	inserts    atomic.Int64
	insertSQL  func(k int64) string
	// insertTable is the table the INSERT shape writes.
	insertTable string
	// check runs after the last phase, against state the writes left.
	check func(fx *fixture) error
	stops []func()
}

func (fx *fixture) close() {
	for i := len(fx.stops) - 1; i >= 0; i-- {
		fx.stops[i]()
	}
	fx.stops = nil
}

// serve puts a polystore behind a loopback listener and registers its
// shutdown with the fixture.
func (fx *fixture) serve(p *core.Polystore) (string, error) {
	s, err := server.Serve(p, "127.0.0.1:0", server.Config{})
	if err != nil {
		return "", err
	}
	fx.stops = append(fx.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s.Addr().String(), nil
}

// query returns the text of operation k of a shape: a pooled query
// picked by the caller's generator, or a freshly minted INSERT.
func (fx *fixture) query(sh *shape, rng *rand.Rand) (string, answer) {
	if sh.insert {
		return fx.insertSQL(fx.inserts.Add(1)), insertedOne
	}
	i := rng.Intn(len(sh.queries))
	return sh.queries[i], sh.want[i]
}

// insertedOne is the relational engine's reply to a one-row INSERT.
var insertedOne = func() answer {
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("status", engine.TypeString), engine.Col("rows", engine.TypeInt)))
	_ = rel.Append(engine.Tuple{engine.NewString("inserted"), engine.NewInt(1)})
	return digestOf(rel, false)
}()

// answerAll fills in every shape's oracle answers by running the
// pooled queries in process, before anything is served or written.
func (fx *fixture) answerAll() error {
	for _, sh := range fx.shapes {
		sh.want = make([]answer, len(sh.queries))
		for i, q := range sh.queries {
			rel, err := fx.oracle.QueryCtx(context.Background(), q)
			if err != nil {
				return fmt.Errorf("%s/%s: oracle: %s: %w", fx.workload, sh.name, q, err)
			}
			sh.want[i] = digestOf(rel, sh.ordered)
		}
	}
	return nil
}

// pool builds a parameter pool of n queries. The generator gets a
// picker that draws the i-th query's parameter from the i-th of n equal
// slices of [lo, hi): every seed's pool covers the range evenly, so a
// metric does not move with how selective a seed's draws happen to be.
func pool(rng *rand.Rand, n int, gen func(pick func(lo, hi int) int) string) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = gen(func(lo, hi int) int {
			return lo + (i*(hi-lo)+rng.Intn(hi-lo))/n
		})
	}
	return qs
}

// roundRobin is the mix in which every shape appears once per round.
func roundRobin(n int) []int {
	mix := make([]int, n)
	for i := range mix {
		mix[i] = i
	}
	return mix
}

// ---- mimic_point ----

func buildMimicPoint(seed int64, sz sizes) (*fixture, error) {
	cfg := mimic.DefaultConfig()
	cfg.Seed = seed
	cfg.Patients = sz.patients
	cfg.WaveformSeconds = 1
	cfg.NotesPerPatient = 2
	sys, err := demo.Load(cfg)
	if err != nil {
		return nil, err
	}
	// A live ingest, so the stream window has something to show.
	if _, err := sys.IngestLive(1, 0, 2*cfg.SampleRate, false); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	wavePatients := sz.patients
	if wavePatients > demo.WaveformPatients {
		wavePatients = demo.WaveformPatients
	}
	fx := &fixture{workload: "mimic_point", poly: sys.Poly, oracle: sys.Poly, nodes: []*core.Polystore{sys.Poly}}
	fx.shapes = []*shape{
		{name: "pk_lookup", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT * FROM patients WHERE id = %d)", pick(1, sz.patients+1))
		})},
		{name: "rx_groupby", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT drug, COUNT(*) AS n FROM prescriptions WHERE dose_mg > %d GROUP BY drug)", pick(0, 75))
		})},
		{name: "text_search", queries: []string{"TEXT(search(notes, 'very sick', 1))", "TEXT(search(notes, 'very sick', 2))"}},
		{name: "wave_aggregate", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("SCIDB(aggregate(filter(waveforms, patient = %d), avg(v)))", pick(1, wavePatients+1))
		})},
		{name: "d4m_sumrows", queries: []string{"D4M(sumrows(assoc(notes)))"}},
		{name: "stream_window", queries: []string{"STREAM(window(vitals))"}},
		{name: "cast_pushdown", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("RELATIONAL(SELECT COUNT(*) AS n FROM CAST(waveforms, relation) WHERE patient = %d AND v > 1.0)", pick(1, wavePatients+1))
		})},
		{name: "text_get", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("TEXT(get(notes, 'p%06d'))", pick(1, sz.patients+1))
		})},
		{name: "join_groupby", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("RELATIONAL(SELECT a.ward, COUNT(*) AS n FROM admissions a JOIN patients p ON a.patient_id = p.id WHERE p.age > %d GROUP BY a.ward)", pick(20, 80))
		})},
	}
	fx.mix = roundRobin(len(fx.shapes))
	// Ground truth the generator planted, independent of any executor:
	// the patients whose notes say 'very sick' at least k times.
	fx.check = func(fx *fixture) error {
		for k := 1; k <= 2; k++ {
			rel, err := fx.oracle.QueryCtx(context.Background(), fmt.Sprintf("TEXT(search(notes, 'very sick', %d))", k))
			if err != nil {
				return err
			}
			if want := len(sys.Dataset.VerySickPatients(k)); rel.Len() != want {
				return fmt.Errorf("mimic_point: search k=%d found %d patients, generator planted %d", k, rel.Len(), want)
			}
		}
		return nil
	}
	return fx, nil
}

// ---- rel_analytic ----

// factTable generates the large table: six columns, values from the
// seed. The float column holds multiples of 1/256, so every sum is
// exact and a sharded merge adds up to the same bits as one scan.
func factTable(seed int64, rows, dims int) *engine.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("dim_id", engine.TypeInt),
		engine.Col("grp", engine.TypeInt), engine.Col("y", engine.TypeInt),
		engine.Col("x", engine.TypeFloat), engine.Col("tag", engine.TypeString)))
	rel.Tuples = make([]engine.Tuple, rows)
	for i := range rel.Tuples {
		rel.Tuples[i] = engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(rng.Intn(dims))),
			engine.NewInt(int64(rng.Intn(16))), engine.NewInt(int64(rng.Intn(100))),
			engine.NewFloat(float64(rng.Intn(1<<16)) / 256), engine.NewString(fmt.Sprintf("t%03d", rng.Intn(500))),
		}
	}
	return rel
}

func dimTable(seed int64, rows int) *engine.Relation {
	rng := rand.New(rand.NewSource(seed + 1))
	regions := []string{"north", "south", "east", "west", "central", "coast", "inland", "island"}
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("dim_id", engine.TypeInt), engine.Col("region", engine.TypeString),
		engine.Col("weight", engine.TypeInt)))
	for i := 0; i < rows; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewString(regions[rng.Intn(len(regions))]), engine.NewInt(int64(rng.Intn(10))),
		})
	}
	return rel
}

func buildRelAnalytic(seed int64, sz sizes) (*fixture, error) {
	p := core.New()
	facts := factTable(seed, sz.factRows, sz.dimRows)
	if err := p.Load(core.EnginePostgres, "facts", facts, core.CastOptions{}); err != nil {
		return nil, err
	}
	if err := p.Load(core.EnginePostgres, "dims", dimTable(seed, sz.dimRows), core.CastOptions{}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{workload: "rel_analytic", poly: p, oracle: p, nodes: []*core.Polystore{p}}
	fx.shapes = []*shape{
		{name: "filtered_count", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT COUNT(*) AS n FROM facts WHERE x > %d)", pick(32, 224))
		})},
		{name: "groupby_sum", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT grp, SUM(x) AS s, COUNT(*) AS n FROM facts WHERE y < %d GROUP BY grp)", pick(20, 80))
		})},
		{name: "join_groupby", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT d.region, SUM(f.x) AS s FROM facts f JOIN dims d ON f.dim_id = d.dim_id WHERE f.y < %d GROUP BY d.region)", pick(5, 25))
		})},
		{name: "selective_scan", queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("POSTGRES(SELECT id, x FROM facts WHERE y = %d)", pick(0, 100))
		})},
	}
	fx.mix = roundRobin(len(fx.shapes))
	// The filtered count, recomputed from the generated rows by a plain
	// loop: a bug shared by the served and the in-process path shows.
	fx.check = func(fx *fixture) error {
		sh := fx.shapes[0]
		for i, q := range sh.queries {
			var t int
			if _, err := fmt.Sscanf(q, "POSTGRES(SELECT COUNT(*) AS n FROM facts WHERE x > %d)", &t); err != nil {
				return err
			}
			var n int64
			for _, row := range facts.Tuples {
				if row[4].F > float64(t) {
					n++
				}
			}
			rel := engine.NewRelation(engine.NewSchema(engine.Col("n", engine.TypeInt)))
			_ = rel.Append(engine.Tuple{engine.NewInt(n)})
			if digestOf(rel, false) != sh.want[i] {
				return fmt.Errorf("rel_analytic: %s: oracle disagrees with a direct count of %d", q, n)
			}
		}
		return nil
	}
	return fx, nil
}

// ---- cast_ingest ----

// liveBase is the first id the INSERT shape mints. Every read shape
// bounds id below it or sums a column the inserted rows hold zero in,
// so answers stay fixed while the CAST source grows under the reads.
const liveBase = 1000000

func readingsTable(seed int64, rows int) *engine.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("site", engine.TypeInt),
		engine.Col("v", engine.TypeFloat), engine.Col("w", engine.TypeFloat),
		engine.Col("tag", engine.TypeString), engine.Col("note", engine.TypeString)))
	rel.Tuples = make([]engine.Tuple, rows)
	for i := range rel.Tuples {
		rel.Tuples[i] = engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(rng.Intn(8))),
			engine.NewFloat(float64(rng.Intn(1<<16)) / 256), engine.NewFloat(float64(rng.Intn(1<<12)) / 16),
			engine.NewString(fmt.Sprintf("tag%02d", rng.Intn(40))), engine.NewString(fmt.Sprintf("reading_%06d", i)),
		}
	}
	return rel
}

func buildCastIngest(seed int64, sz sizes) (*fixture, error) {
	p := core.New()
	readings := readingsTable(seed, sz.castRows)
	if err := p.Load(core.EnginePostgres, "readings", readings, core.CastOptions{}); err != nil {
		return nil, err
	}
	// The matching array: the numeric columns on the (id, site) grid.
	grid := engine.NewRelation(engine.NewSchema(readings.Schema.Columns[:4]...))
	for _, t := range readings.Tuples {
		grid.Tuples = append(grid.Tuples, t[:4])
	}
	if err := p.Load(core.EngineSciDB, "grid", grid, core.CastOptions{}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tenth := sz.castRows / 10
	fx := &fixture{workload: "cast_ingest", poly: p, oracle: p, nodes: []*core.Polystore{p}, insertTable: "readings"}
	pushed := pool(rng, sz.params, func(pick func(lo, hi int) int) string {
		lo := pick(0, sz.castRows-tenth)
		return fmt.Sprintf("RELATIONAL(SELECT id, v FROM CAST(readings, relation) WHERE id >= %d AND id < %d)", lo, lo+tenth)
	})
	movedPushed := engine.NewRelation(engine.NewSchema(readings.Schema.Columns[0], readings.Schema.Columns[2]))
	for _, t := range readings.Tuples[:tenth] {
		movedPushed.Tuples = append(movedPushed.Tuples, engine.Tuple{t[0], t[2]})
	}
	fx.shapes = []*shape{
		{name: "cast_full_to_array", moved: readings,
			queries: []string{"ARRAY(aggregate(CAST(readings, array), sum(v)))", "ARRAY(aggregate(CAST(readings, array), max(w)))"}},
		{name: "cast_pushdown", moved: movedPushed, queries: pushed},
		{name: "cast_array_to_relation", moved: grid, queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("RELATIONAL(SELECT COUNT(*) AS n, SUM(v) AS s FROM CAST(grid, relation) WHERE w > %d)", pick(32, 224))
		})},
		{name: "bulk_fetch", queries: []string{fmt.Sprintf("POSTGRES(SELECT * FROM readings WHERE id < %d)", liveBase)}},
		{name: "insert", insert: true},
	}
	// Seven reads, then the write: every 8th operation is the INSERT.
	// Three full casts, two array-to-relation casts, and one each of the
	// cheaper shapes put the median inside the array-to-relation cluster
	// and the 95th percentile inside the full-cast cluster; a percentile
	// that falls between two clusters jumps from run to run.
	fx.mix = []int{0, 2, 1, 0, 2, 3, 0, 4}
	fx.insertSQL = func(k int64) string {
		return fmt.Sprintf("POSTGRES(INSERT INTO readings VALUES (%d, 0, 0.0, 0.0, 'live', 'ingest'))", liveBase+k)
	}
	before := objectNames(p)
	fx.check = func(fx *fixture) error {
		// Every acknowledged INSERT is there, and nothing else is.
		rel, err := p.QueryCtx(context.Background(), fmt.Sprintf("POSTGRES(SELECT COUNT(*) AS n FROM readings WHERE id >= %d)", liveBase))
		if err != nil {
			return err
		}
		if got, want := rel.Tuples[0][0].AsInt(), fx.inserts.Load(); got != want {
			return fmt.Errorf("cast_ingest: %d inserted rows in readings, %d INSERTs were issued", got, want)
		}
		if after := objectNames(p); after != before {
			return fmt.Errorf("cast_ingest: temp objects leaked:\nbefore: %s\nafter:  %s", before, after)
		}
		return nil
	}
	return fx, nil
}

// objectNames lists everything a polystore holds — catalog entries and
// the physical objects of each engine — as one comparable string.
func objectNames(p *core.Polystore) string {
	var names []string
	for _, o := range p.Objects() {
		names = append(names, "catalog:"+o.Name)
	}
	for _, t := range p.Relational.Tables() {
		names = append(names, "postgres:"+t)
	}
	for _, a := range p.ArrayStore.Names() {
		names = append(names, "scidb:"+a)
	}
	for _, t := range p.KV.Tables() {
		names = append(names, "accumulo:"+t)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// ---- shard_scatter ----

const shardCount = 4

func eventTable(seed int64, rows int) *engine.Relation {
	rng := rand.New(rand.NewSource(seed + 2))
	kinds := []string{"admit", "discharge", "transfer", "alarm", "order", "result", "note", "consult"}
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("kind", engine.TypeString),
		engine.Col("sev", engine.TypeInt)))
	for i := 0; i < rows; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewString(kinds[rng.Intn(len(kinds))]), engine.NewInt(int64(rng.Intn(1000))),
		})
	}
	return rel
}

func buildShardScatter(seed int64, sz sizes) (_ *fixture, err error) {
	fx := &fixture{workload: "shard_scatter"}
	defer func() {
		if err != nil {
			fx.close() // the servers started so far
		}
	}()
	tables := map[string]*engine.Relation{
		"facts":  factTable(seed, sz.factRows, sz.dimRows),
		"events": eventTable(seed, sz.eventRows),
	}
	names := []string{"facts", "events"}
	// The unsharded copy: the oracle, and the baseline the coordinator
	// tier's cost is measured against.
	direct := core.New()
	for _, name := range names {
		if err := direct.Load(core.EnginePostgres, name, tables[name], core.CastOptions{}); err != nil {
			return nil, err
		}
	}
	fx.oracle = direct
	shards := make([]*core.Polystore, shardCount)
	for i := range shards {
		shards[i] = core.New()
	}
	spec := shard.HashSpec("id", shardCount)
	for _, name := range names {
		parts, err := shard.Split(tables[name], spec)
		if err != nil {
			return nil, err
		}
		for i, part := range parts {
			if err := shards[i].Load(core.EnginePostgres, name, part, core.CastOptions{}); err != nil {
				return nil, err
			}
		}
	}
	fx.capture = &capture{}
	eps := make([]core.ShardEndpoint, shardCount)
	idx := make([]int, shardCount)
	for i, sp := range shards {
		addr, err := fx.serve(sp)
		if err != nil {
			return nil, err
		}
		ep := client.NewEndpoint(addr)
		fx.stops = append(fx.stops, func() { _ = ep.Close() })
		eps[i] = &timedEndpoint{inner: ep, shard: i, capture: fx.capture}
		idx[i] = i
	}
	coord := core.New()
	coord.SetShardEndpoints(eps...)
	for _, name := range names {
		if err := coord.RegisterSharded(name, spec, tables[name].Schema, idx...); err != nil {
			return nil, err
		}
	}
	fx.poly = coord
	fx.nodes = append([]*core.Polystore{coord}, shards...)
	if fx.directAddr, err = fx.serve(direct); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fx.shapes = []*shape{
		{name: "pushed_count", mergeOps: []shard.MergeOp{shard.MergeCount, shard.MergeMin},
			queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
				return fmt.Sprintf("RELATIONAL(SELECT COUNT(*) AS n FROM facts WHERE x > %d)", pick(32, 224))
			})},
		{name: "pushed_groupby", mergeKeys: 1,
			mergeOps: []shard.MergeOp{shard.MergeKey, shard.MergeCount, shard.MergeSum, shard.MergeMin},
			queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
				return fmt.Sprintf("RELATIONAL(SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM facts WHERE y < %d GROUP BY grp)", pick(20, 80))
			})},
		{name: "ordered_gather", ordered: true, queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			lo := pick(0, 95)
			return fmt.Sprintf("RELATIONAL(SELECT id, x FROM facts WHERE y >= %d AND y < %d)", lo, lo+5)
		})},
		{name: "gather_fallback", ordered: true, queries: pool(rng, sz.params, func(pick func(lo, hi int) int) string {
			return fmt.Sprintf("RELATIONAL(SELECT DISTINCT kind, sev FROM events WHERE sev >= %d ORDER BY sev DESC, kind LIMIT 20)", pick(500, 900))
		})},
	}
	// The two pushed aggregates twice each: the median then falls inside
	// their cluster and not between it and the gathers.
	fx.mix = []int{0, 1, 2, 3, 0, 1}
	return fx, nil
}
