package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/stream"
	"repro/internal/tiledb"
)

// TestCastRoundTripPreservesData drives an object through every engine
// that can hold it and back, checking the data survives each hop:
// postgres → scidb → postgres, postgres → accumulo → postgres,
// postgres → tiledb → postgres.
func TestCastRoundTripPreservesData(t *testing.T) {
	paths := [][]EngineKind{
		{EngineSciDB, EnginePostgres},
		{EngineTileDB, EnginePostgres},
	}
	for _, path := range paths {
		t.Run(fmt.Sprintf("%v", path), func(t *testing.T) {
			p := New()
			rel := engine.NewRelation(engine.NewSchema(
				engine.Col("k", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
			for i := 0; i < 200; i++ {
				_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i) * 1.5)})
			}
			if err := p.Relational.InsertRelation("obj", rel); err != nil {
				t.Fatal(err)
			}
			if err := p.Register("obj", EnginePostgres, "obj"); err != nil {
				t.Fatal(err)
			}
			current := "obj"
			for _, hop := range path {
				res, err := p.Cast(current, hop, CastOptions{})
				if err != nil {
					t.Fatalf("cast %s → %s: %v", current, hop, err)
				}
				current = res.Target
			}
			got, err := p.Dump(current)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != rel.Len() {
				t.Fatalf("cardinality after round trip: %d, want %d", got.Len(), rel.Len())
			}
			got.SortBy(0)
			for i, row := range got.Tuples {
				if row[0].AsInt() != int64(i) || row[1].AsFloat() != float64(i)*1.5 {
					t.Fatalf("row %d corrupted: %v", i, row)
				}
			}
		})
	}

	// Every source engine, one hop: into the two targets that keep rows
	// as they are — Postgres, and SciDB keyed on a unique leading INT
	// column — the landed copy's Dump must equal the source's, kind for
	// kind. Mixed-kind columns only go to SciDB (a relational table
	// coerces or refuses them); zero-row sources only to Postgres (an
	// array cannot be empty).
	const obj = "src"
	relational := func(to EngineKind, opts CastOptions) func(*testing.T, *Polystore, int, bool) {
		return func(t *testing.T, p *Polystore, n int, mixed bool) {
			if err := p.Load(to, obj, awkwardRows(n, mixed), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	sources := []struct {
		engine EngineKind
		mixed  bool // the engine can hold a mixed-kind column
		toSciD bool // its dump leads with a unique INT column
		load   func(t *testing.T, p *Polystore, n int, mixed bool)
	}{
		{EnginePostgres, false, true, relational(EnginePostgres, CastOptions{})},
		{EngineSciDB, true, true, func(t *testing.T, p *Polystore, n int, mixed bool) {
			if n > 0 {
				relational(EngineSciDB, CastOptions{ArrayDims: []string{"k"}})(t, p, n, mixed)
				return
			}
			a, err := array.New(obj, []array.Dim{{Name: "k", Low: 0, High: 9}},
				[]engine.Column{engine.Col("f", engine.TypeFloat)}, false)
			if err != nil {
				t.Fatal(err)
			}
			p.ArrayStore.Put(a)
			if err := p.Register(obj, EngineSciDB, obj); err != nil {
				t.Fatal(err)
			}
		}},
		{EngineAccumulo, false, false, func(t *testing.T, p *Polystore, n int, _ bool) {
			if err := p.KV.CreateTable(obj); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				value := fmt.Sprintf("v%d", i)
				if i%3 == 0 {
					value = ""
				}
				if err := p.KV.Put(obj, kvstore.Entry{Key: kvstore.Key{Row: fmt.Sprintf("r%02d", i),
					Family: "f", Qualifier: "", Timestamp: int64(i)}, Value: value}); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Register(obj, EngineAccumulo, obj); err != nil {
				t.Fatal(err)
			}
		}},
		{EngineTileDB, false, true, func(t *testing.T, p *Polystore, n int, _ bool) {
			a, err := tiledb.NewArray(obj, tiledb.Box{Lo: []int64{0}, Hi: []int64{99}}, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			cells := make([]tiledb.Cell, n)
			for i := range cells {
				cells[i] = tiledb.Cell{Coords: []int64{int64(3 * i)}, Value: float64(i) / 4}
			}
			if n > 1 {
				cells[1].Value = math.NaN()
			}
			if n > 0 {
				if err := a.Write(cells); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.PutTileDB(a); err != nil {
				t.Fatal(err)
			}
		}},
		{EngineSStore, true, true, func(t *testing.T, p *Polystore, n int, mixed bool) {
			rel := awkwardRows(n, mixed)
			schema := engine.Schema{Columns: rel.Schema.Columns[1:]} // ts stands in for k
			if err := p.Streams.CreateStream(obj, schema, 64); err != nil {
				t.Fatal(err)
			}
			for i, row := range rel.Tuples {
				if err := p.Streams.Append(obj, stream.Record{TS: int64(i), Values: row[1:]}); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Register(obj, EngineSStore, obj); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, src := range sources {
		for _, tc := range []struct {
			n     int
			mixed bool
			to    EngineKind
		}{
			{12, false, EnginePostgres},
			{0, false, EnginePostgres},
			{12, false, EngineSciDB},
			{12, true, EngineSciDB},
		} {
			if (tc.mixed && !src.mixed) || (tc.to == EngineSciDB && !src.toSciD) {
				continue
			}
			t.Run(fmt.Sprintf("%s→%s/rows=%d/mixed=%v", src.engine, tc.to, tc.n, tc.mixed), func(t *testing.T) {
				p := New()
				src.load(t, p, tc.n, tc.mixed)
				want, err := p.Dump(obj)
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() != tc.n {
					t.Fatalf("fixture holds %d rows, want %d", want.Len(), tc.n)
				}
				res, err := p.Cast(obj, tc.to, CastOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rows != tc.n {
					t.Errorf("CastResult.Rows = %d, want %d", res.Rows, tc.n)
				}
				got, err := p.Dump(res.Target)
				if err != nil {
					t.Fatal(err)
				}
				assertSameValues(t, got, want)
			})
		}
	}
}

// awkwardRows is the value mix a transport is most likely to mangle: a
// unique ascending INT key (so array targets keep row order), NULLs in
// every other column, NaN, empty strings, and — when mixed — a column
// declared FLOAT whose values are of every kind, which the column batch
// can only carry in its demoted generic form.
func awkwardRows(n int, mixed bool) *engine.Relation {
	cols := []engine.Column{engine.Col("k", engine.TypeInt), engine.Col("f", engine.TypeFloat),
		engine.Col("s", engine.TypeString), engine.Col("b", engine.TypeBool)}
	if mixed {
		cols = append(cols, engine.Col("m", engine.TypeFloat))
	}
	rel := engine.NewRelation(engine.Schema{Columns: cols})
	strays := []engine.Value{engine.NewFloat(2.5), engine.NewInt(7), engine.NewString("stray"),
		engine.Null, engine.NewBool(true), engine.NewString("")}
	for i := 0; i < n; i++ {
		row := engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i) * 1.5),
			engine.NewString(fmt.Sprintf("s%d", i)), engine.NewBool(i%2 == 0)}
		switch i % 6 {
		case 0:
			row[2] = engine.NewString("")
		case 1:
			row[1] = engine.NewFloat(math.NaN())
		case 2:
			row[1] = engine.Null
		case 3:
			row[2] = engine.Null
		case 4:
			row[3] = engine.Null
		}
		if mixed {
			row = append(row, strays[i%len(strays)])
		}
		_ = rel.Append(row)
	}
	return rel
}

// assertSameValues compares two relations kind for kind and bit for bit
// (NaN equals NaN; an INT 2 does not equal a FLOAT 2).
func assertSameValues(t *testing.T, got, want *engine.Relation) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d rows, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Tuples {
		for j := range w {
			g := got.Tuples[i][j]
			if g.Kind != w[j].Kind || g.I != w[j].I || g.S != w[j].S || g.B != w[j].B ||
				math.Float64bits(g.F) != math.Float64bits(w[j].F) {
				t.Fatalf("row %d col %d: %#v, want %#v", i, j, g, w[j])
			}
		}
	}
}

// TestAccumuloRoundTripPreservesCells checks the exploded KV layout
// keeps every cell value addressable.
func TestAccumuloRoundTripPreservesCells(t *testing.T) {
	p := New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("k", engine.TypeInt), engine.Col("v", engine.TypeFloat),
		engine.Col("label", engine.TypeString)))
	for i := 0; i < 50; i++ {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)),
			engine.NewFloat(float64(i) / 2), engine.NewString(fmt.Sprintf("L%d", i))})
	}
	if err := p.Relational.InsertRelation("obj", rel); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("obj", EnginePostgres, "obj"); err != nil {
		t.Fatal(err)
	}
	res, err := p.Cast("obj", EngineAccumulo, CastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := p.KV.Get(res.Target, "17")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 { // v and label cells
		t.Fatalf("cells for row 17: %d", len(es))
	}
	found := map[string]string{}
	for _, e := range es {
		found[e.Key.Qualifier] = e.Value
	}
	if found["v"] != "8.5" || found["label"] != "L17" {
		t.Errorf("cell values: %v", found)
	}
}

// TestConcurrentQueriesAndCasts exercises the catalog and engines under
// parallel readers with interleaved casts.
func TestConcurrentQueriesAndCasts(t *testing.T) {
	p := demoStore(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.Query(`POSTGRES(SELECT COUNT(*) FROM patients)`); err != nil {
					errs <- err
					return
				}
				if _, err := p.Query(`SCIDB(aggregate(wf, sum(v)))`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := p.Cast("patients", EngineSciDB, CastOptions{})
				if err != nil {
					errs <- err
					return
				}
				_ = p.ArrayStore.Remove(res.Target)
				p.Deregister(res.Target)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
