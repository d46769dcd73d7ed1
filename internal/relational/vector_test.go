package relational

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// parityDB builds a table with every scalar kind plus NULLs, loaded in
// both executors' reach.
func parityDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE p (id INT PRIMARY KEY, grp INT, v FLOAT, label TEXT, flag BOOL)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.table("p")
	for i := 0; i < rows; i++ {
		row := engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(i % 7)),
			engine.NewFloat(float64(i) / 4), engine.NewString(fmt.Sprintf("label_%d", i%5)),
			engine.NewBool(i%3 == 0),
		}
		switch i % 11 {
		case 4:
			row[2] = engine.Null
		case 7:
			row[3] = engine.Null
		case 9:
			row[1] = engine.Null
		}
		if err := tbl.insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// runBoth executes q under the row and vectorized executors and fails
// on any difference in schema, cardinality, values or rows scanned.
func runBoth(t *testing.T, db *DB, q string) {
	t.Helper()
	db.SetVectorized(false)
	before := db.Stats().RowsScanned
	rowRes, rowErr := db.Query(q)
	rowScanned := db.Stats().RowsScanned - before
	db.SetVectorized(true)
	before = db.Stats().RowsScanned
	vecRes, vecErr := db.Query(q)
	vecScanned := db.Stats().RowsScanned - before
	if (rowErr == nil) != (vecErr == nil) {
		t.Fatalf("%s: row err %v, vec err %v", q, rowErr, vecErr)
	}
	if rowScanned != vecScanned {
		t.Fatalf("%s: row path scanned %d rows, vectorized %d", q, rowScanned, vecScanned)
	}
	if rowErr != nil {
		return
	}
	if !rowRes.Schema.Equal(vecRes.Schema) {
		t.Fatalf("%s: schema %v vs %v", q, rowRes.Schema, vecRes.Schema)
	}
	if rowRes.Len() != vecRes.Len() {
		t.Fatalf("%s: %d rows vs %d rows", q, rowRes.Len(), vecRes.Len())
	}
	for i := range rowRes.Tuples {
		for j := range rowRes.Tuples[i] {
			a, b := rowRes.Tuples[i][j], vecRes.Tuples[i][j]
			if a.Kind != b.Kind || !engine.Equal(a, b) {
				t.Fatalf("%s: row %d col %d: %v(%v) vs %v(%v)", q, i, j, a, a.Kind, b, b.Kind)
			}
		}
	}
}

// parityQueries is the single-table battery every parity test runs
// under both executors: filters over every comparison and logical
// operator, projections, aggregates and the row-path fallbacks.
var parityQueries = []string{
	// Filters over every comparison and logical operator.
	`SELECT id FROM p WHERE v > 60.0 AND grp < 4`,
	`SELECT id FROM p WHERE grp = 3 OR flag = true`,
	`SELECT id FROM p WHERE NOT (grp = 3) AND v <= 100`,
	`SELECT id FROM p WHERE grp <> 2 AND id >= 250`,
	`SELECT id FROM p WHERE v IS NULL`,
	`SELECT id FROM p WHERE grp IS NOT NULL AND label IS NOT NULL`,
	`SELECT id FROM p WHERE id BETWEEN 100 AND 200`,
	`SELECT id FROM p WHERE v NOT BETWEEN 10 AND 110`,
	`SELECT id FROM p WHERE grp IN (1, 3, 5)`,
	`SELECT id FROM p WHERE grp NOT IN (0, 6)`,
	`SELECT id FROM p WHERE label IN ('label_1', 'label_4')`,
	`SELECT id FROM p WHERE label LIKE 'label_%'`,
	`SELECT id FROM p WHERE label LIKE '%_3'`,
	// Mixed int/float comparison and arithmetic.
	`SELECT id FROM p WHERE v > id`,
	`SELECT id, id + grp, v * 2.0, id - grp, id * grp FROM p WHERE id < 50`,
	`SELECT id, -v, id % 7 FROM p WHERE id < 30`,
	`SELECT label || '!' FROM p WHERE id < 10`,
	// Projection-only (full scan, no WHERE).
	`SELECT * FROM p`,
	`SELECT id, v FROM p`,
	// Aggregates: grouped, implicit single group, HAVING, aliases.
	`SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM p GROUP BY grp`,
	`SELECT grp, COUNT(v), STDDEV(v) FROM p GROUP BY grp`,
	`SELECT COUNT(*), AVG(v) FROM p`,
	`SELECT COUNT(*) FROM p WHERE grp IS NULL`,
	`SELECT label, MIN(label), MAX(label) FROM p GROUP BY label`,
	`SELECT grp, COUNT(*) FROM p GROUP BY grp HAVING COUNT(*) > 50`,
	`SELECT grp AS g, COUNT(*) FROM p GROUP BY g`,
	`SELECT grp, COUNT(DISTINCT label) FROM p GROUP BY grp`,
	`SELECT flag, COUNT(*) FROM p GROUP BY flag`,
	`SELECT id / 2, COUNT(*) FROM p GROUP BY id / 2`,
	`SELECT grp, label, COUNT(*) FROM p GROUP BY grp, label`,
	// ORDER BY / DISTINCT / LIMIT ride on either executor's output.
	`SELECT DISTINCT label FROM p`,
	`SELECT id, v FROM p ORDER BY v DESC LIMIT 10`,
	`SELECT grp, COUNT(*) AS n FROM p GROUP BY grp ORDER BY n DESC, grp LIMIT 3`,
	// Row-path fallbacks (scalar functions are not vectorized).
	`SELECT UPPER(label) FROM p WHERE id < 10`,
	`SELECT id FROM p WHERE LENGTH(label) > 6`,
	`SELECT COALESCE(v, 0.0) FROM p WHERE id < 30`,
}

// TestVectorizedParity runs the battery under both executors; the
// vectorized path must be plan-for-plan indistinguishable.
func TestVectorizedParity(t *testing.T) {
	db := parityDB(t, 500)
	for _, q := range parityQueries {
		runBoth(t, db, q)
	}
}

// addGroupTable adds g(grp, name) with fewer groups than p has, so
// some p rows find no match.
func addGroupTable(t testing.TB, db *DB) {
	t.Helper()
	if _, err := db.Execute(`CREATE TABLE g (grp INT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO g VALUES (%d, 'g%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVectorizedParityJoins(t *testing.T) {
	db := parityDB(t, 300)
	addGroupTable(t, db)
	if _, err := db.Execute(`CREATE TABLE names (label TEXT, pretty TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO names VALUES ('label_%d', 'Label %d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT p.id, g.name FROM p JOIN g ON p.grp = g.grp WHERE p.id < 100`,
		`SELECT p.id, g.name FROM p LEFT JOIN g ON p.grp = g.grp WHERE p.id < 100`,
		`SELECT g.name, COUNT(*) FROM p JOIN g ON p.grp = g.grp GROUP BY g.name`,
		`SELECT p.id, n.pretty FROM p JOIN names n ON p.label = n.label WHERE p.id < 50`,
		`SELECT a.id, b.id FROM p a JOIN p b ON a.id = b.grp WHERE a.id < 7`,
		// Non-equi ON: both executors must take the nested-loop path.
		`SELECT p.id, g.name FROM p JOIN g ON p.grp > g.grp WHERE p.id < 20`,
		`SELECT p.id FROM p CROSS JOIN g WHERE p.id < 5`,
	} {
		runBoth(t, db, q)
	}
}

// TestVectorizedParityParallel runs the parity battery where filters
// take the chunked path (≥ parallelScanRows rows), sequentially and
// over four workers, plus the benchmark's rel_analytic shapes, empty /
// all-rows / 1% selections and the filter-below-join soundness cases.
func TestVectorizedParityParallel(t *testing.T) {
	const rows = 1 << 16
	db := parityDB(t, rows)
	addGroupTable(t, db)
	queries := append([]string{
		// rel_analytic's four shapes.
		`SELECT COUNT(*) AS n FROM p WHERE v > 8000`,
		`SELECT grp, SUM(v) AS s, COUNT(*) AS n FROM p WHERE id < 40000 GROUP BY grp`,
		`SELECT g.name, SUM(p.v) AS s FROM p JOIN g ON p.grp = g.grp WHERE p.id < 9000 GROUP BY g.name`,
		`SELECT id, v FROM p WHERE id BETWEEN 30000 AND 30654`,
		// Empty, all-rows and 1% selections, kernel and adapter.
		`SELECT id FROM p WHERE v < -1`,
		`SELECT COUNT(*), SUM(v) FROM p WHERE id > 1000000`,
		`SELECT grp, COUNT(*) FROM p WHERE id < 0 GROUP BY grp`,
		`SELECT COUNT(*), MIN(label), MAX(v) FROM p WHERE id >= 0`,
		`SELECT grp, COUNT(*), SUM(v) FROM p WHERE id >= 0 AND label IS NOT NULL GROUP BY grp`,
		`SELECT id, label FROM p WHERE id % 100 = 0`,
		`SELECT id FROM p WHERE 655 > id AND label <> 'label_3'`,
		// Filter below the join: FROM-table conjuncts move, the rest stay.
		`SELECT p.id, g.name FROM p JOIN g ON p.grp = g.grp WHERE p.v < 1000 AND g.name <> 'g2'`,
		`SELECT p.id, g.name FROM p LEFT JOIN g ON p.grp = g.grp WHERE g.name IS NULL AND p.id < 5000`,
		`SELECT a.id, b.id FROM p a JOIN p b ON a.id = b.grp WHERE a.id < 7 AND b.id < 100`,
		`SELECT p.id FROM p JOIN g ON p.grp = g.grp WHERE p.id < 100 OR g.name = 'g1'`,
		`SELECT p.id FROM p CROSS JOIN g WHERE p.id < 5 AND g.grp > 2`,
	}, parityQueries...)
	// These must error on both paths: an unqualified name ambiguous
	// after the join, and a division by a zero g.grp that moving the
	// p.v conjunct below the join must not hide.
	failing := []string{
		`SELECT p.id FROM p JOIN g ON p.grp = g.grp WHERE grp > 1`,
		`SELECT p.id FROM p JOIN g ON p.grp = g.grp WHERE p.v > 1 AND 10 / g.grp > 1`,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, q := range queries {
			runBoth(t, db, q)
		}
		for _, q := range failing {
			runBoth(t, db, q)
			if _, err := db.Query(q); err == nil {
				t.Fatalf("GOMAXPROCS=%d: %s: no error", procs, q)
			}
		}
	}
}

// TestPreJoinFilterSplit pins which WHERE conjuncts run below the joins.
func TestPreJoinFilterSplit(t *testing.T) {
	db := parityDB(t, 10)
	addGroupTable(t, db)
	for _, c := range []struct{ q, below, above string }{
		{`SELECT * FROM p JOIN g ON p.grp = g.grp WHERE p.v > 1 AND g.name <> 'g2' AND id < 5`,
			`((p.v > 1) AND (id < 5))`, `(g.name <> 'g2')`},
		// LEFT JOIN: the right side's conjunct stays above the padding.
		{`SELECT * FROM p LEFT JOIN g ON p.grp = g.grp WHERE g.name IS NULL AND p.id < 5000`,
			`(p.id < 5000)`, `(g.name IS NULL)`},
		{`SELECT * FROM p a JOIN p b ON a.id = b.grp WHERE a.id < 7 AND b.id < 100`,
			`(a.id < 7)`, `(b.id < 100)`},
		{`SELECT * FROM p JOIN g ON p.grp = g.grp WHERE p.id < 100 OR g.name = 'g1'`,
			``, `((p.id < 100) OR (g.name = 'g1'))`},
		// Refusals: an ambiguous name, an error-prone conjunct or ON.
		{`SELECT * FROM p JOIN g ON p.grp = g.grp WHERE p.id < 5 AND grp > 1`,
			``, `((p.id < 5) AND (grp > 1))`},
		{`SELECT * FROM p JOIN g ON p.grp = g.grp WHERE p.v > 1 AND 10 / g.grp > 1`,
			``, `((p.v > 1) AND ((10 / g.grp) > 1))`},
		{`SELECT * FROM p JOIN g ON p.grp / 1 = g.grp WHERE p.v > 1`,
			``, `(p.v > 1)`},
	} {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		s := stmt.(*Select)
		alias := func(ref TableRef) string {
			if ref.Alias != "" {
				return ref.Alias
			}
			return ref.Name
		}
		pt, _ := db.table("p")
		from := baseRowSchema(alias(*s.From), pt.Schema)
		joined := from
		for _, j := range s.Joins {
			jt, _ := db.table(j.Table.Name)
			joined = append(joined[:len(joined):len(joined)], baseRowSchema(alias(j.Table), jt.Schema)...)
		}
		below, above := preJoinFilter(s.Where, s.Joins, len(from), joined)
		if got := formatOrEmpty(below); got != c.below {
			t.Errorf("%s: below %s, want %s", c.q, got, c.below)
		}
		if got := formatOrEmpty(above); got != c.above {
			t.Errorf("%s: above %s, want %s", c.q, got, c.above)
		}
	}
	// The padded side of a LEFT JOIN takes nothing, even a conjunct it
	// owns; the same table inner-joined takes it (core's pushdown asks
	// for inputs other than the FROM table).
	for kind, want := range map[string]int{"LEFT JOIN": 0, "JOIN": 1} {
		stmt, err := Parse(`SELECT * FROM p ` + kind + ` g ON p.grp = g.grp WHERE g.name IS NULL`)
		if err != nil {
			t.Fatal(err)
		}
		s := stmt.(*Select)
		below, _ := SplitBelowJoin(s.Where, s.Joins, 1, func(cr ColumnRef) (bool, bool) {
			return cr.Table == "g", true
		})
		if len(below) != want {
			t.Errorf("%s: %d conjuncts below the join, want %d", kind, len(below), want)
		}
	}
}

func formatOrEmpty(e Expr) string {
	if e == nil {
		return ""
	}
	return FormatExpr(e)
}

// TestVectorizedNaNParity pins engine.Compare's NaN rule — NaN is
// neither less nor greater than anything, so it compares equal — in
// the selection kernels and the adapter kernels alike.
func TestVectorizedNaNParity(t *testing.T) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE n (id INT PRIMARY KEY, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.table("n")
	for i, v := range []engine.Value{engine.NewFloat(math.NaN()), engine.NewFloat(1), engine.NewFloat(2.5), engine.Null} {
		if err := tbl.insert(engine.Tuple{engine.NewInt(int64(i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT id FROM n WHERE v = 1.0`, `SELECT id FROM n WHERE v <> 1`, `SELECT id FROM n WHERE 2 > v`,
		`SELECT id FROM n WHERE v >= 2.5`, `SELECT id FROM n WHERE v <= 1.0`,
		`SELECT id FROM n WHERE v BETWEEN 0 AND 2`, `SELECT id FROM n WHERE v NOT BETWEEN 0 AND 2`,
		`SELECT id FROM n WHERE v IN (1.0, 7)`, `SELECT id FROM n WHERE v NOT IN (2.5)`,
		`SELECT id FROM n WHERE v = id`, `SELECT id FROM n WHERE v + 0 BETWEEN 0 AND 2`,
		`SELECT id FROM n WHERE v + 0 IN (1.0, 2.0)`,
	} {
		runBoth(t, db, q)
	}
}

// TestVectorizedShortCircuit pins AND/OR short-circuit semantics: the
// right operand must not be evaluated for rows the left side decides,
// so a guarded division never sees the zero divisor — on both
// executors.
func TestVectorizedShortCircuit(t *testing.T) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE s (id INT PRIMARY KEY, d INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`INSERT INTO s VALUES (1, 0), (2, 5), (3, NULL)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT id FROM s WHERE d <> 0 AND 10 / d > 1`,
		`SELECT id FROM s WHERE d = 0 OR 10 / d > 1`,
		`SELECT id FROM s WHERE d IS NOT NULL AND d <> 0 AND 10 % d >= 0`,
	} {
		runBoth(t, db, q)
		rel, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: guarded division errored: %v", q, err)
		}
		if rel.Len() == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}
	// An unguarded division still errors on both paths.
	db.SetVectorized(true)
	if _, err := db.Query(`SELECT id FROM s WHERE 10 / d > 1`); err == nil {
		t.Fatal("unguarded division by zero did not error (vec)")
	}
	db.SetVectorized(false)
	if _, err := db.Query(`SELECT id FROM s WHERE 10 / d > 1`); err == nil {
		t.Fatal("unguarded division by zero did not error (row)")
	}
	db.SetVectorized(true)
}

// TestVectorizedBufferReuse pins two regressions around reused result
// buffers and degenerate IN lists: projectPlainVec shares one scratch
// vec across output expressions, so a kernel that skips rows (the
// short-circuiting AND) must not see the previous expression's values;
// and IN lists reduced to nothing by NULL literals must evaluate to a
// constant miss rather than indexing an unallocated buffer.
func TestVectorizedBufferReuse(t *testing.T) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE s2 (id INT PRIMARY KEY, flag BOOL, grp INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`INSERT INTO s2 VALUES (1, true, 5), (2, true, 1), (3, NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		// flag fills the shared bool buffer with true before the AND runs.
		`SELECT flag, grp = 1 AND id > 0 FROM s2`,
		`SELECT flag, grp = 9 OR id < 0 FROM s2`,
		`SELECT id FROM s2 WHERE flag IN (NULL)`,
		`SELECT id FROM s2 WHERE flag NOT IN (NULL)`,
		`SELECT id FROM s2 WHERE grp IN (NULL)`,
		`SELECT id FROM s2 WHERE grp NOT IN (NULL, NULL)`,
	} {
		runBoth(t, db, q)
	}
}

// TestVectorizedAfterMutation ensures the column cache invalidates on
// writes: a vectorized query after INSERT/UPDATE/DELETE sees the new
// state.
func TestVectorizedAfterMutation(t *testing.T) {
	db := parityDB(t, 100)
	warm := func() int {
		rel, err := db.Query(`SELECT COUNT(*) FROM p WHERE v >= 0 OR v IS NULL OR v < 0`)
		if err != nil {
			t.Fatal(err)
		}
		return int(rel.Tuples[0][0].I)
	}
	if n := warm(); n != 100 {
		t.Fatalf("initial count %d", n)
	}
	if _, err := db.Execute(`INSERT INTO p VALUES (1000, 1, 1.5, 'label_9', false)`); err != nil {
		t.Fatal(err)
	}
	if n := warm(); n != 101 {
		t.Fatalf("count after insert %d, want 101", n)
	}
	if _, err := db.Execute(`DELETE FROM p WHERE id = 1000`); err != nil {
		t.Fatal(err)
	}
	if n := warm(); n != 100 {
		t.Fatalf("count after delete %d, want 100", n)
	}
	if _, err := db.Execute(`UPDATE p SET v = 999.0 WHERE id = 0`); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Query(`SELECT v FROM p WHERE v = 999.0`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("update invisible to vectorized scan: %d rows", rel.Len())
	}
}

// TestLikePathological pins the LIKE matcher's complexity: the old
// recursive matcher was exponential on %a%a%a%… patterns and would not
// finish this test within the heat death of the universe.
func TestLikePathological(t *testing.T) {
	s := strings.Repeat("a", 300) + "b"
	pattern := strings.Repeat("%a", 25) + "%c"
	start := time.Now()
	if likeMatch(s, pattern) {
		t.Fatal("pattern should not match")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("pathological LIKE took %v", elapsed)
	}
	// And the matcher still matches what it should.
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello world", "hello%", true},
		{"hello world", "%world", true},
		{"hello world", "h_llo%", true},
		{"hello world", "%o w%", true},
		{"hello world", "hello", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"aaab", "%a%a%a%b", true},
		{"CaseFold", "casefold", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestDMLIndexFastPath verifies UPDATE/DELETE with a PK or secondary
// equality predicate route through the index (RowsScanned stays flat)
// and still honour compound predicates.
func TestDMLIndexFastPath(t *testing.T) {
	db := parityDB(t, 1000)
	before := db.Stats().RowsScanned
	if rel, err := db.Execute(`UPDATE p SET v = 1.25 WHERE id = 500`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 1 {
		t.Fatalf("updated %v rows", rel.Tuples[0][1])
	}
	scanned := db.Stats().RowsScanned - before
	if scanned > 5 {
		t.Fatalf("PK update scanned %d rows, want O(1)", scanned)
	}
	// Compound predicate: index narrows, residual filter still applies.
	before = db.Stats().RowsScanned
	if rel, err := db.Execute(`UPDATE p SET v = 2.5 WHERE id = 501 AND grp = 999`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 0 {
		t.Fatalf("residual filter ignored: updated %v rows", rel.Tuples[0][1])
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 5 {
		t.Fatalf("compound PK update scanned %d rows", scanned)
	}
	before = db.Stats().RowsScanned
	if rel, err := db.Execute(`DELETE FROM p WHERE id = 502`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 1 {
		t.Fatalf("deleted %v rows", rel.Tuples[0][1])
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 5 {
		t.Fatalf("PK delete scanned %d rows", scanned)
	}
	if rel, _ := db.Query(`SELECT COUNT(*) FROM p`); rel.Tuples[0][0].I != 999 {
		t.Fatalf("count after delete %v", rel.Tuples[0][0])
	}
	// Secondary index fast path.
	if _, err := db.Execute(`CREATE INDEX idx_grp ON p (grp)`); err != nil {
		t.Fatal(err)
	}
	before = db.Stats().RowsScanned
	rel, err := db.Execute(`DELETE FROM p WHERE grp = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][1].I == 0 {
		t.Fatal("secondary-index delete removed nothing")
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 200 {
		t.Fatalf("secondary-index delete scanned %d rows", scanned)
	}
}

// TestJoinEdgeCases covers LEFT JOIN null padding, alias resolution in
// the equi-join detector, and correct fallback when the equi fast path
// does not apply — on both executors.
func TestJoinEdgeCases(t *testing.T) {
	db := NewDB()
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE l (id INT PRIMARY KEY, k INT)`)
	mustExec(`CREATE TABLE r (k INT, tag TEXT)`)
	mustExec(`INSERT INTO l VALUES (1, 10), (2, 20), (3, 30), (4, NULL)`)
	mustExec(`INSERT INTO r VALUES (10, 'a'), (10, 'aa'), (30, 'c')`)

	for _, vec := range []bool{false, true} {
		db.SetVectorized(vec)
		name := map[bool]string{false: "row", true: "vec"}[vec]

		// LEFT JOIN pads unmatched and NULL-key rows with NULLs.
		rel, err := db.Query(`SELECT l.id, r.tag FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.id, r.tag`)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 5 { // 1×2 matches + 3 + two padded (2, 4)
			t.Fatalf("[%s] left join returned %d rows:\n%s", name, rel.Len(), rel)
		}
		padded := 0
		for _, row := range rel.Tuples {
			if row[1].IsNull() {
				padded++
				if row[0].I != 2 && row[0].I != 4 {
					t.Errorf("[%s] row %v should not be padded", name, row[0])
				}
			}
		}
		if padded != 2 {
			t.Fatalf("[%s] %d padded rows, want 2 (unmatched + NULL key)", name, padded)
		}

		// Aliases resolve on both sides of the ON equality, in either order.
		for _, q := range []string{
			`SELECT a.id, b.tag FROM l a JOIN r b ON a.k = b.k`,
			`SELECT a.id, b.tag FROM l a JOIN r b ON b.k = a.k`,
		} {
			rel, err := db.Query(q)
			if err != nil {
				t.Fatalf("[%s] %s: %v", name, q, err)
			}
			if rel.Len() != 3 {
				t.Fatalf("[%s] %s: %d rows, want 3", name, q, rel.Len())
			}
		}

		// Unqualified ON k = k resolves one side per schema (the
		// equi-join detector tries left-then-right), same as the seed.
		rel, err = db.Query(`SELECT l.id FROM l JOIN r ON k = k`)
		if err != nil {
			t.Fatalf("[%s] unqualified equi ON: %v", name, err)
		}
		if rel.Len() != 3 {
			t.Fatalf("[%s] unqualified equi ON %d rows, want 3", name, rel.Len())
		}

		// Non-equi ON falls back to nested loop with the same results.
		rel, err = db.Query(`SELECT l.id, r.tag FROM l JOIN r ON l.k < r.k ORDER BY l.id, r.tag`)
		if err != nil {
			t.Fatal(err)
		}
		// l.k=10 < 30 (1 row... l1:c), l.k=20 < 30 (l2:c), l.k=30: none, NULL: none
		if rel.Len() != 2 {
			t.Fatalf("[%s] non-equi join %d rows, want 2:\n%s", name, rel.Len(), rel)
		}
		// Expression ON (not bare columns) also falls back.
		rel, err = db.Query(`SELECT l.id FROM l JOIN r ON l.k + 0 = r.k`)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 3 {
			t.Fatalf("[%s] expression-ON join %d rows, want 3", name, rel.Len())
		}
	}
}

// TestVectorizedAllocBudget pins the bytes the vectorized executor
// allocates per query, per scanned row, on a 64k-row table: filters
// build selections in proportion to what they keep, grouping reads its
// inputs in place and WHERE runs below the join, so nothing allocates
// in proportion to the table outside the selection. Bytes, not
// allocation counts, are the waste, hence TotalAlloc deltas. Each
// ceiling is the largest value measured at GOMAXPROCS 1, 2 and 4 (the
// same with -race) plus 25%; the parent commit allocated 30–78 B.
func TestVectorizedAllocBudget(t *testing.T) {
	const rows = 1 << 16
	db := parityDB(t, rows)
	addGroupTable(t, db)
	for _, c := range []struct {
		name, q   string
		maxPerRow float64 // bytes allocated per scanned row
	}{
		{"filter_count", `SELECT COUNT(*) FROM p WHERE v > 8192`, 5.3},                                                            // measured 4.21
		{"filter_groupby", `SELECT grp, SUM(v), COUNT(*) FROM p WHERE id < 32768 GROUP BY grp`, 8.2},                              // 6.58
		{"filter_join_groupby", `SELECT g.name, SUM(p.v) FROM p JOIN g ON p.grp = g.grp WHERE p.id < 9830 GROUP BY g.name`, 16.2}, // 12.92
		{"scan_1pct", `SELECT id, v FROM p WHERE id BETWEEN 30000 AND 30654`, 2.4},                                                // 1.95
	} {
		if _, err := db.Query(c.q); err != nil { // warms the column cache
			t.Fatal(err)
		}
		const runs = 5
		scanned := db.Stats().RowsScanned
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := db.Query(c.q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		scanned = db.Stats().RowsScanned - scanned
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(scanned)
		t.Logf("%s: %.2f B per scanned row", c.name, perRow)
		if perRow > c.maxPerRow {
			t.Errorf("%s: %.2f B allocated per scanned row, ceiling %.2f", c.name, perRow, c.maxPerRow)
		}
	}
}
