package relational

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, v FLOAT, label TEXT)`); err != nil {
		b.Fatal(err)
	}
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("grp", engine.TypeInt),
		engine.Col("v", engine.TypeFloat), engine.Col("label", engine.TypeString)))
	for i := 0; i < rows; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(i % 50)),
			engine.NewFloat(float64(i) / 7), engine.NewString(fmt.Sprintf("label_%d", i%10)),
		})
	}
	// Bulk-load via a staging table to keep the PK index.
	for _, row := range rel.Tuples {
		db.mu.Lock()
		tbl, _ := db.table("t")
		if err := tbl.insert(row); err != nil {
			db.mu.Unlock()
			b.Fatal(err)
		}
		db.mu.Unlock()
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d.5)`, i, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointLookupPK(b *testing.B) {
	db := benchDB(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT * FROM t WHERE id = 5000`); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRowVec runs the query under both executors (row-at-a-time and
// vectorized) at the given table size — the acceptance comparison for
// the columnar executor. The vectorized run warms the column cache
// outside the timer, matching the steady state of a resident table.
func benchRowVec(b *testing.B, rows int, prep func(b *testing.B, db *DB), q string) {
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := benchDB(b, rows)
			if prep != nil {
				prep(b, db)
			}
			db.SetVectorized(mode == "vec")
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFilterScan(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchRowVec(b, rows, nil, `SELECT id FROM t WHERE v > 700.0 AND grp < 25`)
		})
	}
}

// BenchmarkFilterAdapter times a WHERE no selection kernel takes: a
// column compared with a column, under OR, through the eval-then-compact
// adapter.
func BenchmarkFilterAdapter(b *testing.B) {
	benchRowVec(b, 100_000, nil, `SELECT id FROM t WHERE v > grp OR label = 'label_3'`)
}

func BenchmarkGroupByAggregate(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchRowVec(b, rows, nil, `SELECT grp, COUNT(*), AVG(v), MAX(v) FROM t GROUP BY grp`)
		})
	}
}

func BenchmarkHashJoin(b *testing.B) {
	prep := func(b *testing.B, db *DB) {
		if _, err := db.Execute(`CREATE TABLE g (grp INT PRIMARY KEY, name TEXT)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := db.Execute(fmt.Sprintf(`INSERT INTO g VALUES (%d, 'group_%d')`, i, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, rows := range []int{5_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchRowVec(b, rows, prep, `SELECT g.name, COUNT(*) FROM t JOIN g ON t.grp = g.grp GROUP BY g.name`)
		})
	}
}

// BenchmarkUpdateByPK and BenchmarkDeleteByPK pin the DML index fast
// path: a PK-equality predicate routes through the hash index instead
// of full-scanning, so the indexed variants stay flat as the table
// grows while the unindexed ones scale with it.
func BenchmarkUpdateByPK(b *testing.B) {
	run := func(b *testing.B, pk string) {
		db := NewDB()
		if _, err := db.Execute(fmt.Sprintf(`CREATE TABLE u (id INT%s, v FLOAT)`, pk)); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100_000; i++ {
			db.mu.Lock()
			tbl, _ := db.table("u")
			if err := tbl.insert(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i))}); err != nil {
				db.mu.Unlock()
				b.Fatal(err)
			}
			db.mu.Unlock()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Execute(`UPDATE u SET v = 1.5 WHERE id = 50000`); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pk_indexed", func(b *testing.B) { run(b, " PRIMARY KEY") })
	b.Run("full_scan", func(b *testing.B) { run(b, "") })
}

func BenchmarkDeleteByPK(b *testing.B) {
	run := func(b *testing.B, pk string) {
		db := NewDB()
		if _, err := db.Execute(fmt.Sprintf(`CREATE TABLE u (id INT%s, v FLOAT)`, pk)); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100_000; i++ {
			db.mu.Lock()
			tbl, _ := db.table("u")
			if err := tbl.insert(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i))}); err != nil {
				db.mu.Unlock()
				b.Fatal(err)
			}
			db.mu.Unlock()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Delete a missing key: exercises the lookup path without
			// mutating the table between iterations.
			if _, err := db.Execute(`DELETE FROM u WHERE id = -1`); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pk_indexed", func(b *testing.B) { run(b, " PRIMARY KEY") })
	b.Run("full_scan", func(b *testing.B) { run(b, "") })
}

func BenchmarkSecondaryIndexVsScan(b *testing.B) {
	b.Run("scan", func(b *testing.B) {
		db := benchDB(b, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM t WHERE grp = 7`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		db := benchDB(b, 10_000)
		if _, err := db.Execute(`CREATE INDEX idx_grp ON t (grp)`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM t WHERE grp = 7`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParse(b *testing.B) {
	const sql = `SELECT g.name, COUNT(*) AS n, AVG(t.v) FROM t JOIN g ON t.grp = g.grp WHERE t.v BETWEEN 10 AND 90 GROUP BY g.name HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelAnalytic runs the four query shapes of the benchmark's
// rel_analytic workload in-process on the vectorized executor over the
// same table layout: 200k facts rows, 1000 dims rows.
func BenchmarkRelAnalytic(b *testing.B) {
	const facts, dims = 200_000, 1000
	db := NewDB()
	for _, ddl := range []string{
		`CREATE TABLE facts (id INT, dim_id INT, grp INT, y INT, x FLOAT, tag TEXT)`,
		`CREATE TABLE dims (dim_id INT, region TEXT, weight INT)`,
	} {
		if _, err := db.Execute(ddl); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ft, _ := db.table("facts")
	for i := 0; i < facts; i++ {
		if err := ft.insert(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(rng.Intn(dims))),
			engine.NewInt(int64(rng.Intn(16))), engine.NewInt(int64(rng.Intn(100))),
			engine.NewFloat(float64(rng.Intn(1<<16)) / 256), engine.NewString(fmt.Sprintf("t%03d", rng.Intn(500))),
		}); err != nil {
			b.Fatal(err)
		}
	}
	dt, _ := db.table("dims")
	regions := []string{"north", "south", "east", "west", "central", "coast", "inland", "island"}
	for i := 0; i < dims; i++ {
		if err := dt.insert(engine.Tuple{engine.NewInt(int64(i)), engine.NewString(regions[rng.Intn(len(regions))]), engine.NewInt(int64(rng.Intn(10)))}); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct{ name, q string }{
		{"filtered_count", `SELECT COUNT(*) AS n FROM facts WHERE x > 128`},
		{"groupby_sum", `SELECT grp, SUM(x) AS s, COUNT(*) AS n FROM facts WHERE y < 50 GROUP BY grp`},
		{"join_groupby", `SELECT d.region, SUM(f.x) AS s FROM facts f JOIN dims d ON f.dim_id = d.dim_id WHERE f.y < 15 GROUP BY d.region`},
		{"selective_scan", `SELECT id, x FROM facts WHERE y = 42`},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := db.Query(c.q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
