package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvstore"
	"repro/internal/myria"
	"repro/internal/stream"
	"repro/internal/tiledb"
)

// demoStore builds a small federation mirroring the MIMIC II layout:
// patients in Postgres, waveform in SciDB, notes in Accumulo, vitals in
// S-Store.
func demoStore(t *testing.T) *Polystore {
	t.Helper()
	p := New()

	// Postgres: patients.
	if _, err := p.Relational.Execute(`CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, age INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Relational.Execute(
		`INSERT INTO patients VALUES (1,'alice',70),(2,'bob',62),(3,'carol',55)`); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("patients", EnginePostgres, "patients"); err != nil {
		t.Fatal(err)
	}

	// SciDB: waveform samples (patient 1, 8 samples).
	wfRel := engine.NewRelation(engine.NewSchema(
		engine.Col("t", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	for i := 0; i < 8; i++ {
		_ = wfRel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i) / 2)})
	}
	if err := p.Load(EngineSciDB, "wf", wfRel, CastOptions{Dense: true}); err != nil {
		t.Fatal(err)
	}

	// Accumulo: notes.
	if err := p.KV.CreateTable("notes", "note"); err != nil {
		t.Fatal(err)
	}
	notes := []kvstore.Entry{
		{Key: kvstore.Key{Row: "p1", Family: "note", Qualifier: "d1", Timestamp: 1}, Value: "very sick patient"},
		{Key: kvstore.Key{Row: "p1", Family: "note", Qualifier: "d2", Timestamp: 2}, Value: "still very sick"},
		{Key: kvstore.Key{Row: "p1", Family: "note", Qualifier: "d3", Timestamp: 3}, Value: "very sick again"},
		{Key: kvstore.Key{Row: "p2", Family: "note", Qualifier: "d1", Timestamp: 1}, Value: "doing well"},
	}
	if err := p.KV.PutBatch("notes", notes); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("notes", EngineAccumulo, "notes"); err != nil {
		t.Fatal(err)
	}

	// S-Store: vitals stream.
	if err := p.Streams.CreateStream("vitals", engine.NewSchema(
		engine.Col("patient", engine.TypeInt), engine.Col("v", engine.TypeFloat)), 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Streams.Append("vitals", stream.Record{
			TS:     int64(i),
			Values: engine.Tuple{engine.NewInt(1), engine.NewFloat(float64(i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Register("vitals", EngineSStore, "vitals"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegisterValidation(t *testing.T) {
	p := New()
	if err := p.Register("x", "bogus", ""); err == nil {
		t.Error("unknown engine should fail")
	}
	if err := p.Register("x", EnginePostgres, ""); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("X", EnginePostgres, ""); err == nil {
		t.Error("duplicate register should fail")
	}
	info, ok := p.Lookup("x")
	if !ok || info.Physical != "x" {
		t.Errorf("lookup: %+v %v", info, ok)
	}
	p.Deregister("x")
	if _, ok := p.Lookup("x"); ok {
		t.Error("deregistered object still resolvable")
	}
}

func TestParseScope(t *testing.T) {
	good := map[string]Island{
		"RELATIONAL(SELECT 1)":      IslandRelational,
		"array(scan(wf))":           IslandArray,
		"TEXT(search(notes,'x',1))": IslandAccumulo,
		"STREAM(window(vitals))":    IslandSStore,
		"postgres(SELECT * FROM t)": IslandPostgres,
		"D4M(assoc(notes))":         IslandD4M,
	}
	for q, island := range good {
		sq, err := parseScope(q)
		if err != nil || sq.island != island {
			t.Errorf("parseScope(%q) = %v, %v", q, sq.island, err)
		}
	}
	for _, bad := range []string{"", "SELECT 1", "NOPE(x)", "RELATIONAL(a(b)", "(x)"} {
		if _, err := parseScope(bad); err == nil {
			t.Errorf("parseScope(%q) should fail", bad)
		}
	}
}

func TestDegenerateIslands(t *testing.T) {
	p := demoStore(t)
	rel, err := p.Query(`POSTGRES(SELECT name FROM patients WHERE age > 60 ORDER BY age)`)
	if err != nil || rel.Len() != 2 || rel.Tuples[0][0].S != "bob" {
		t.Errorf("postgres island: %v %v", rel, err)
	}
	rel, err = p.Query(`SCIDB(aggregate(wf, sum(v)))`)
	if err != nil || rel.Tuples[0][0].AsFloat() != 14 { // 0+0.5+...+3.5
		t.Errorf("scidb island: %v %v", rel, err)
	}
	rel, err = p.Query(`TEXT(search(notes, 'very sick', 3))`)
	if err != nil || rel.Len() != 1 || rel.Tuples[0][0].S != "p1" {
		t.Errorf("text island: %v %v", rel, err)
	}
	rel, err = p.Query(`TEXT(get(notes, 'p2'))`)
	if err != nil || rel.Len() != 1 {
		t.Errorf("text get: %v %v", rel, err)
	}
	rel, err = p.Query(`TEXT(count(notes))`)
	if err != nil || rel.Tuples[0][0].I != 4 {
		t.Errorf("text count: %v %v", rel, err)
	}
	rel, err = p.Query(`STREAM(window(vitals))`)
	if err != nil || rel.Len() != 5 {
		t.Errorf("stream window: %v %v", rel, err)
	}
	rel, err = p.Query(`STREAM(aggregate(vitals, avg, v))`)
	if err != nil || rel.Tuples[0][0].AsFloat() != 2 {
		t.Errorf("stream aggregate: %v %v", rel, err)
	}
	rel, err = p.Query(`STREAM(appended(vitals))`)
	if err != nil || rel.Tuples[0][0].I != 5 {
		t.Errorf("stream appended: %v %v", rel, err)
	}
}

func TestIslandErrors(t *testing.T) {
	p := demoStore(t)
	bad := []string{
		`TEXT(search(notes))`,
		`TEXT(frobnicate(notes))`,
		`STREAM(window())`,
		`STREAM(nope(vitals))`,
		`RELATIONAL(INSERT INTO patients VALUES (9,'x',1))`, // DML not allowed
		`MYRIA(anything)`,
		`SCIDB(scan(missing_array))`,
	}
	for _, q := range bad {
		if _, err := p.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestCastArrayToRelation(t *testing.T) {
	p := demoStore(t)
	// The paper's example: a relational query over an array via CAST.
	rel, err := p.Query(`RELATIONAL(SELECT * FROM CAST(wf, relation) WHERE v > 1.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 { // v = 2.0, 2.5, 3.0, 3.5
		t.Errorf("cast query: %v", rel)
	}
}

func TestCastRelationToArray(t *testing.T) {
	p := demoStore(t)
	rel, err := p.Query(`ARRAY(aggregate(CAST(patients, array), max(age)))`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].AsFloat() != 70 {
		t.Errorf("relation→array cast: %v", rel)
	}
}

func TestRelationalIslandLocationTransparency(t *testing.T) {
	p := demoStore(t)
	// No CAST: the island shims the array object in transparently.
	rel, err := p.Query(`RELATIONAL(SELECT COUNT(*) FROM wf WHERE v >= 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].I != 6 {
		t.Errorf("transparent shim: %v", rel)
	}
	// Join across engines: Postgres patients × SciDB waveform.
	rel, err = p.Query(`RELATIONAL(SELECT p.name, COUNT(*) AS n FROM patients p JOIN wf w ON p.id = 1 WHERE w.v > 1 GROUP BY p.name)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 { // all patients join (p.id=1 only restricts..) — actually ON p.id = 1 keeps only alice
		// Recheck: ON p.id = 1 is not an equi-join between sides; nested loop
		// keeps rows where p.id=1, so only alice appears.
		if rel.Len() != 1 || rel.Tuples[0][0].S != "alice" {
			t.Errorf("cross-engine join: %v", rel)
		}
	}
}

func TestArrayIslandLocationTransparency(t *testing.T) {
	p := demoStore(t)
	// patients lives in Postgres; the ARRAY island shims it in. Leading
	// INT column (id) becomes the dimension.
	rel, err := p.Query(`ARRAY(aggregate(patients, avg(age)))`)
	if err != nil {
		t.Fatal(err)
	}
	want := (70.0 + 62 + 55) / 3
	if got := rel.Tuples[0][0].AsFloat(); got != want {
		t.Errorf("array shim avg: %v want %v", got, want)
	}
}

func TestNestedIslandQueryInCast(t *testing.T) {
	p := demoStore(t)
	// Inner ARRAY query feeds the outer RELATIONAL scope — a multi-scope
	// cross-island pipeline (§2.1 "express specification using any
	// number of island languages").
	q := `RELATIONAL(SELECT COUNT(*) AS n FROM CAST(ARRAY(filter(wf, v > 1.5)), relation))`
	rel, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].I != 4 {
		t.Errorf("nested island cast: %v", rel)
	}
}

func TestCastToKV(t *testing.T) {
	p := demoStore(t)
	res, err := p.Cast("patients", EngineAccumulo, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 patients × 2 non-key columns = 6 entries.
	n, err := p.KV.Len(res.Target)
	if err != nil || n != 6 {
		t.Errorf("kv cast entries: %d %v", n, err)
	}
	// And back out through the text island.
	rel, err := p.Query(`TEXT(get(` + res.Target + `, '1'))`)
	if err != nil || rel.Len() != 2 {
		t.Errorf("kv cast readback: %v %v", rel, err)
	}
}

func TestCastToTileDB(t *testing.T) {
	p := demoStore(t)
	res, err := p.Cast("wf", EngineTileDB, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.TileDBArray(res.Target)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := a.Get([]int64{4})
	if err != nil || !ok || v != 2.0 {
		t.Errorf("tiledb cast cell: %v %v %v", v, ok, err)
	}
	// Dump back out.
	rel, err := p.Dump(res.Target)
	if err != nil || rel.Len() != 8 {
		t.Errorf("tiledb dump: %v %v", rel, err)
	}
}

func TestCastErrors(t *testing.T) {
	p := demoStore(t)
	if _, err := p.Cast("nope", EnginePostgres, CastOptions{}); err == nil {
		t.Error("unknown object should fail")
	}
	if _, err := p.Cast("patients", EngineSStore, CastOptions{}); err == nil {
		t.Error("cast into stream engine should fail")
	}
	if _, err := p.Query(`RELATIONAL(SELECT * FROM CAST(wf))`); err == nil {
		t.Error("CAST arity should fail")
	}
	if _, err := p.Query(`RELATIONAL(SELECT * FROM CAST(wf, hologram))`); err == nil {
		t.Error("unknown CAST target should fail")
	}
}

func TestMigrateRepointsCatalog(t *testing.T) {
	p := demoStore(t)
	res, err := p.Migrate("wf", EnginePostgres, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != "wf" {
		t.Errorf("migrate target: %+v", res)
	}
	info, _ := p.Lookup("wf")
	if info.Engine != EnginePostgres {
		t.Errorf("catalog not repointed: %+v", info)
	}
	// Queries keep working against the new home.
	rel, err := p.Query(`RELATIONAL(SELECT COUNT(*) FROM wf)`)
	if err != nil || rel.Tuples[0][0].I != 8 {
		t.Errorf("post-migration query: %v %v", rel, err)
	}
	// Migrating to the current home is a no-op.
	res2, err := p.Migrate("wf", EnginePostgres, CastOptions{})
	if err != nil || res2.From != EnginePostgres {
		t.Errorf("idempotent migrate: %+v %v", res2, err)
	}
}

// TestMigrateLeavesOneHome migrates an array to Postgres and back and
// asserts the source's physical copy goes with it each way — every
// object has exactly one home — while a migration that fails leaves
// the source where it was.
func TestMigrateLeavesOneHome(t *testing.T) {
	defer fault.Reset()
	p := demoStore(t)
	// homes checks the engines hold exactly the physical objects the
	// catalog points at, nothing stranded beside them.
	homes := func(when string) {
		t.Helper()
		want := map[EngineKind][]string{}
		for _, o := range p.Objects() {
			want[o.Engine] = append(want[o.Engine], strings.ToLower(o.Physical))
		}
		for eng, got := range map[EngineKind][]string{
			EnginePostgres: p.Relational.Tables(),
			EngineSciDB:    p.ArrayStore.Names(),
		} {
			for i := range got {
				got[i] = strings.ToLower(got[i])
			}
			sort.Strings(got)
			sort.Strings(want[eng])
			if strings.Join(got, ",") != strings.Join(want[eng], ",") {
				t.Errorf("%s: %s holds %v, catalog points at %v", when, eng, got, want[eng])
			}
		}
	}
	src, _ := p.Dump("wf")
	nObjects := len(p.Objects())
	homes("at start")

	fault.Arm(fault.Spec{Point: FpCastCommit, Mode: fault.ModeError, Times: -1})
	before := snapshotPolystore(t, p)
	if _, err := p.Migrate("wf", EnginePostgres, CastOptions{}); err == nil {
		t.Fatal("migration with the commit failpoint armed succeeded")
	}
	fault.Reset()
	if after := snapshotPolystore(t, p); after != before {
		t.Fatalf("failed migration changed polystore state\nbefore:\n%s\nafter:\n%s", before, after)
	}

	for _, to := range []EngineKind{EnginePostgres, EngineSciDB} {
		if _, err := p.Migrate("wf", to, CastOptions{}); err != nil {
			t.Fatalf("migrate wf → %s: %v", to, err)
		}
		if info, _ := p.Lookup("wf"); info.Engine != to {
			t.Fatalf("after migrating to %s the catalog says %+v", to, info)
		}
		if n := len(p.Objects()); n != nObjects {
			t.Errorf("after migrating to %s: %d catalog objects, want %d", to, n, nObjects)
		}
		homes("after migrating to " + string(to))
	}
	back, err := p.Dump("wf")
	if err != nil {
		t.Fatal(err)
	}
	if canonRelation(back) != canonRelation(src) {
		t.Error("wf changed on the way there and back")
	}
}

func TestD4MIsland(t *testing.T) {
	p := demoStore(t)
	// Edge list in Postgres.
	if _, err := p.Relational.Execute(`CREATE TABLE edges (row TEXT, col TEXT, val FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Relational.Execute(
		`INSERT INTO edges VALUES ('a','b',1),('b','c',1),('c','d',1),('a','c',1)`); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("edges", EnginePostgres, "edges"); err != nil {
		t.Fatal(err)
	}
	rel, err := p.Query(`D4M(assoc(edges))`)
	if err != nil || rel.Len() != 4 {
		t.Fatalf("assoc: %v %v", rel, err)
	}
	rel, err = p.Query(`D4M(multiply(assoc(edges), assoc(edges)))`)
	if err != nil || rel.Len() != 3 { // 2-hop: a→c, a→d, b→d
		t.Errorf("multiply: %v %v", rel, err)
	}
	rel, err = p.Query(`D4M(bfs(assoc(edges), 'a', 5))`)
	if err != nil || rel.Len() != 4 {
		t.Fatalf("bfs: %v %v", rel, err)
	}
	rel, err = p.Query(`D4M(sumrows(assoc(edges)))`)
	if err != nil || rel.Len() != 3 {
		t.Errorf("sumrows: %v %v", rel, err)
	}
	rel, err = p.Query(`D4M(filter(assoc(edges), '>', 0.5))`)
	if err != nil || rel.Len() != 4 {
		t.Errorf("filter: %v %v", rel, err)
	}
	// Accumulo notes as an associative array (D4M's home mapping).
	rel, err = p.Query(`D4M(assoc(notes))`)
	if err != nil || rel.Len() != 4 {
		t.Errorf("kv assoc: %v %v", rel, err)
	}
	for _, bad := range []string{
		`D4M(assoc())`, `D4M(filter(assoc(edges), '~', 1))`,
		`D4M(bfs(assoc(edges), 'a', 'x'))`, `D4M(nosuch(assoc(edges)))`,
	} {
		if _, err := p.Query(bad); err == nil {
			t.Errorf("Query(%q) should fail", bad)
		}
	}
}

func TestMyriaIsland(t *testing.T) {
	p := demoStore(t)
	// A Myria plan joining a Postgres table with the SciDB array.
	plan := myria.GroupBy{
		Child: myria.Select{
			Child: myria.Join{
				Left:     myria.Scan{Name: "patients"},
				Right:    myria.Scan{Name: "wf"},
				LeftCol:  "id",
				RightCol: "t", // joins patient ids 1..3 with sample idx
			},
			Pred: "v >= 0.5",
		},
		Keys: []string{"name"},
		Aggs: []myria.AggSpec{{Kind: "count", As: "n"}},
	}
	rel, stats, err := p.ExecuteMyria(plan)
	if err != nil {
		t.Fatal(err)
	}
	// t=1 (v=0.5): alice... ids 1,2,3 join samples 1,2,3 with v .5,1,1.5 —
	// all ≥ .5 → three groups of 1.
	if rel.Len() != 3 {
		t.Errorf("myria result: %v", rel)
	}
	if stats.RowsProcessed == 0 {
		t.Error("myria stats empty")
	}
}

func TestObjectsListing(t *testing.T) {
	p := demoStore(t)
	objs := p.Objects()
	if len(objs) != 4 {
		t.Fatalf("objects: %v", objs)
	}
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	if !strings.HasPrefix(strings.Join(names, ","), "notes,patients") {
		t.Errorf("sorted objects: %v", names)
	}
	if len(Islands()) != 8 {
		t.Errorf("the reference implementation hosts 8 islands, got %d", len(Islands()))
	}
}

func TestTileDBRegistration(t *testing.T) {
	p := New()
	a, err := tiledb.NewArray("sparse_m", tiledb.Box{Lo: []int64{0, 0}, Hi: []int64{9, 9}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Write([]tiledb.Cell{{Coords: []int64{1, 2}, Value: 3}})
	if err := p.PutTileDB(a); err != nil {
		t.Fatal(err)
	}
	rel, err := p.Dump("sparse_m")
	if err != nil || rel.Len() != 1 {
		t.Errorf("tiledb dump: %v %v", rel, err)
	}
	if _, err := p.TileDBArray("missing"); err == nil {
		t.Error("missing tiledb array should fail")
	}
}
