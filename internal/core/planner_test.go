package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// bigTable registers a 6-column postgres table with n rows where
// column a cycles 0..99 (so `a < k` gives k% selectivity).
func bigTable(t testing.TB, p *Polystore, name string, n int) {
	t.Helper()
	schema := engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("a", engine.TypeInt),
		engine.Col("b", engine.TypeFloat), engine.Col("c", engine.TypeString),
		engine.Col("d", engine.TypeString), engine.Col("e", engine.TypeFloat),
	)
	rel := engine.NewRelation(schema)
	for i := 0; i < n; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(i % 100)),
			engine.NewFloat(float64(i) * 0.5), engine.NewString(fmt.Sprintf("name_%06d", i)),
			engine.NewString(strings.Repeat("x", 20)), engine.NewFloat(float64(i)),
		})
	}
	if err := p.Relational.InsertRelation(name, rel); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(name, EnginePostgres, name); err != nil {
		t.Fatal(err)
	}
}

func TestCastPredicateAndProjection(t *testing.T) {
	p := New()
	bigTable(t, p, "big", 1000)

	full, err := p.Cast("big", EnginePostgres, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Rows != 1000 || full.RowsScanned != 1000 {
		t.Fatalf("full cast: %+v", full)
	}
	pushed, err := p.Cast("big", EnginePostgres, CastOptions{
		Predicate: "a < 10", Columns: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Rows != 100 || pushed.RowsScanned != 1000 {
		t.Fatalf("pushed cast rows=%d scanned=%d", pushed.Rows, pushed.RowsScanned)
	}
	if pushed.Bytes*5 >= full.Bytes {
		t.Errorf("pushdown should move ≥5x fewer bytes: %d vs %d", pushed.Bytes, full.Bytes)
	}
	rel, err := p.Dump(pushed.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Schema.Columns) != 2 || !strings.EqualFold(rel.Schema.Columns[0].Name, "a") {
		t.Errorf("projected schema: %v", rel.Schema.Names())
	}
	for _, row := range rel.Tuples {
		if row[0].I >= 10 {
			t.Fatalf("predicate not applied: %v", row)
		}
	}
}

// The acceptance scenario: ≤10% selectivity, 2 of 6 columns referenced,
// 100k rows — pushdown must cut CastResult.Bytes by ≥5x.
func TestPushdownAcceptanceByteReduction(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	p := New()
	bigTable(t, p, "big", n)
	full, err := p.Cast("big", EnginePostgres, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := p.Cast("big", EnginePostgres, CastOptions{
		Predicate: "a < 10", Columns: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Rows*10 != full.Rows {
		t.Fatalf("selectivity off: %d of %d", pushed.Rows, full.Rows)
	}
	if pushed.Bytes*5 >= full.Bytes {
		t.Errorf("bytes: pushed %d vs full %d (want ≥5x reduction)", pushed.Bytes, full.Bytes)
	}
}

// The planner must produce the same rows the migrate-everything path
// produces, while registering a filtered CAST under the covers.
func TestPlannedQueryMatchesUnplanned(t *testing.T) {
	queries := []string{
		`RELATIONAL(SELECT name FROM CAST(wf, relation) w JOIN patients p ON w.t = p.id WHERE w.v > 0.5 ORDER BY name)`,
		`RELATIONAL(SELECT t, v FROM CAST(wf, relation) WHERE v > 1.5)`,
		`RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wf, relation) WHERE v > 1.5 AND t < 7)`,
		`ARRAY(aggregate(filter(CAST(patients, array), age > 60), avg(age)))`,
		`TEXT(scan(CAST(patients, text), '2', '3'))`,
		`TEXT(get(CAST(patients, text), '1'))`,
		`RELATIONAL(SELECT * FROM CAST(wf, relation) WHERE v > 1.5)`,
		`RELATIONAL(SELECT COUNT(*) AS n FROM CAST(ARRAY(filter(wf, v > 1.5)), relation))`,
	}
	for _, q := range queries {
		on := demoStore(t)
		off := demoStore(t)
		off.SetPushdown(false)
		relOn, errOn := on.Query(q)
		relOff, errOff := off.Query(q)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: pushdown err %v vs baseline err %v", q, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		if got, want := canonRelation(relOn), canonRelation(relOff); got != want {
			t.Errorf("%s:\npushdown: %s\nbaseline: %s", q, got, want)
		}
	}
}

// canonRelation renders a relation order-insensitively (schema plus
// sorted row lines) for differential comparison.
func canonRelation(rel *engine.Relation) string {
	var sb strings.Builder
	for _, c := range rel.Schema.Columns {
		fmt.Fprintf(&sb, "%s:%v|", strings.ToLower(c.Name), c.Type)
	}
	sb.WriteByte('\n')
	lines := make([]string, rel.Len())
	for i, row := range rel.Tuples {
		var rb strings.Builder
		for _, v := range row {
			rb.WriteString(fmt.Sprintf("%d:%s\x1f", v.Kind, v.String()))
		}
		lines[i] = rb.String()
	}
	insertionSort(lines)
	return sb.String() + strings.Join(lines, "\n")
}

func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Queries must not leak their CAST temporaries: catalog entries, tables
// and arrays created for a query disappear when it completes.
func TestQueryTempObjectCleanup(t *testing.T) {
	p := demoStore(t)
	baseline := func() (int, int, int, int) {
		return len(p.Objects()), len(p.Relational.Tables()), len(p.ArrayStore.Names()), len(p.KV.Tables())
	}
	o0, t0, a0, k0 := baseline()
	queries := []string{
		`RELATIONAL(SELECT * FROM CAST(wf, relation) WHERE v > 1.5)`,
		`RELATIONAL(SELECT COUNT(*) FROM wf WHERE v >= 1)`, // shim path
		`ARRAY(aggregate(CAST(patients, array), max(age)))`,
		`ARRAY(aggregate(patients, avg(age)))`, // shim path
		`TEXT(scan(CAST(patients, text), '1', '3'))`,
		`RELATIONAL(SELECT COUNT(*) AS n FROM CAST(ARRAY(filter(wf, v > 1.5)), relation))`,
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if _, err := p.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	// Run with the planner off too: the unplanned path must also clean up.
	p.SetPushdown(false)
	for _, q := range queries {
		if _, err := p.Query(q); err != nil {
			t.Fatalf("planner off %s: %v", q, err)
		}
	}
	if o1, t1, a1, k1 := baseline(); o1 != o0 || t1 != t0 || a1 != a0 || k1 != k0 {
		t.Errorf("temp objects leaked: objects %d→%d tables %d→%d arrays %d→%d kv %d→%d",
			o0, o1, t0, t1, a0, a1, k0, k1)
	}
}

// A failing query must still reclaim the temporaries it minted before
// the failure.
func TestQueryTempCleanupOnError(t *testing.T) {
	p := demoStore(t)
	o0 := len(p.Objects())
	t0 := len(p.Relational.Tables())
	// The first CAST succeeds, the second names a missing object.
	q := `RELATIONAL(SELECT * FROM CAST(wf, relation) w JOIN CAST(missing, relation) m ON w.t = m.t)`
	if _, err := p.Query(q); err == nil {
		t.Fatal("query should fail")
	}
	if o1, t1 := len(p.Objects()), len(p.Relational.Tables()); o1 != o0 || t1 != t0 {
		t.Errorf("error path leaked: objects %d→%d tables %d→%d", o0, o1, t0, t1)
	}
}

// Domain-sensitive array bodies must not get predicate pushdown: a
// filtered load infers a shrunken dim domain from the pruned cells,
// which subarray/regrid/window/multiply and the 3-arg (group-by-dim)
// aggregate all observe — including when the call puts whitespace
// before the parenthesis, which the array engine tolerates.
func TestArrayDomainSensitivePushdown(t *testing.T) {
	queries := []string{
		`ARRAY(aggregate(filter(CAST(wf, array), v > 1.5), min(v), t))`,
		`ARRAY(subarray (filter(CAST(wf, array), v > 1.5), 2, 5))`,
		`ARRAY(aggregate (filter(CAST(wf, array), v > 1.5), min(v), t))`,
		`ARRAY(regrid(filter(CAST(wf, array), v > 1.5), 4, avg(v)))`,
	}
	for _, q := range queries {
		on := demoStore(t)
		off := demoStore(t)
		off.SetPushdown(false)
		relOn, errOn := on.Query(q)
		relOff, errOff := off.Query(q)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: error divergence: on=%v off=%v", q, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		if got, want := canonRelation(relOn), canonRelation(relOff); got != want {
			t.Errorf("%s:\npushdown: %s\nbaseline: %s", q, got, want)
		}
		if pushed, _ := on.CastStats(); pushed != 0 {
			t.Errorf("%s: domain-sensitive body must not push (pushed=%d)", q, pushed)
		}
	}
}

// A predicate cast that matches zero rows cannot land in an array and
// must error (not silently migrate everything); CastStats must not
// count failed migrations or identity projections as pushdown.
func TestCastPredicateEdgeAccounting(t *testing.T) {
	p := demoStore(t)
	if _, err := p.Cast("patients", EngineSciDB, CastOptions{Predicate: "age > 1000"}); err == nil {
		t.Error("zero-match predicate into scidb should error, not migrate in full")
	}
	if pushed, full := p.CastStats(); pushed != 0 || full != 0 {
		t.Errorf("failed cast must count as neither: pushed=%d full=%d", pushed, full)
	}
	// Through the island, the planner retries the failed pushed cast in
	// full — one logical cast, counted once, as full.
	if _, err := p.Query(`ARRAY(scan(filter(CAST(patients, array), age > 1000)))`); err != nil {
		t.Fatalf("zero-match island query must still work via fallback: %v", err)
	}
	if pushed, full := p.CastStats(); pushed != 0 || full != 1 {
		t.Errorf("fallback cast accounting: pushed=%d full=%d (want 0, 1)", pushed, full)
	}
	p2 := demoStore(t)
	res, err := p2.Cast("patients", EnginePostgres, CastOptions{
		Columns: []string{"id", "name", "age"}, // the full schema, in order
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.dropTempObjects([]string{res.Target})
	if pushed, full := p2.CastStats(); pushed != 0 || full != 1 {
		t.Errorf("identity projection counted as pushdown: pushed=%d full=%d", pushed, full)
	}
}

// CastStats counts every landed CAST the same whether the planner is
// on or off: on an island without pushdown (D4M) a body with one
// named-source and one nested-source CAST moves pushed+full by 2 both
// ways. The planner-off lifter used to load nested sources without
// counting them.
func TestCastStatsPlannerParity(t *testing.T) {
	const q = `D4M(add(assoc(CAST(patients, relation), name, name, age), ` +
		`assoc(CAST(POSTGRES(SELECT name, age FROM patients), relation), name, name, age)))`
	for _, pushdown := range []bool{true, false} {
		p := demoStore(t)
		p.SetPushdown(pushdown)
		if _, err := p.Query(q); err != nil {
			t.Fatalf("pushdown=%v: %v", pushdown, err)
		}
		if pushed, full := p.CastStats(); pushed+full != 2 {
			t.Errorf("pushdown=%v: pushed=%d full=%d, want 2 casts counted", pushdown, pushed, full)
		}
	}
}

// TileDB targets reject a cast predicate outright: their load is
// lossy (dims AsInt-coerced, collisions overwritten) and has no
// cell-faithful filter, so raw-row pre-filtering would land wrong cells.
func TestCastPredicateTileDBRejected(t *testing.T) {
	p := demoStore(t)
	if _, err := p.Cast("wf", EngineTileDB, CastOptions{Predicate: "v > 1"}); err == nil {
		t.Error("predicate cast into tiledb should be refused")
	}
	if _, err := p.Cast("wf", EngineTileDB, CastOptions{}); err != nil {
		t.Errorf("plain tiledb cast must still work: %v", err)
	}
}

// Pushdown must stay behind when it would change semantics.
func TestPushdownSafetyGuards(t *testing.T) {
	p := demoStore(t)
	// LEFT JOIN right side: IS NULL probes padded rows, so the predicate
	// must not pre-filter the joined table.
	q := `RELATIONAL(SELECT p.name FROM patients p LEFT JOIN CAST(wf, relation) w ON p.id = w.t WHERE w.v IS NULL ORDER BY p.name)`
	on, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	off := demoStore(t)
	off.SetPushdown(false)
	want, err := off.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if canonRelation(on) != canonRelation(want) {
		t.Errorf("LEFT JOIN pushdown mismatch:\n%s\nvs\n%s", canonRelation(on), canonRelation(want))
	}
	// Guarded division: the guard and the division are separate
	// conjuncts; pushing `10 / (t-t) > 1` alone would error on every row.
	q = `RELATIONAL(SELECT t FROM CAST(wf, relation) WHERE t <> 0 AND 10 / t > 1)`
	rel, err := p.Query(q)
	if err != nil {
		t.Fatalf("guarded division must not error: %v", err)
	}
	if rel.Len() == 0 {
		t.Error("guarded division returned nothing")
	}
	// The reverse ordering errors on the baseline (left-to-right
	// short-circuit hits 10/0 before the guard). Pushing the guard would
	// shrink the division's evaluation set and make planner-on succeed
	// where planner-off raises — error behavior must agree, so one
	// error-prone conjunct anywhere disables predicate pushdown.
	q = `RELATIONAL(SELECT t FROM CAST(wf, relation) WHERE 10 / t > 1 AND t <> 0)`
	_, errOn := p.Query(q)
	off2 := demoStore(t)
	off2.SetPushdown(false)
	_, errOff := off2.Query(q)
	if (errOn == nil) != (errOff == nil) {
		t.Errorf("error divergence on unguarded division: on=%v off=%v", errOn, errOff)
	}
}
