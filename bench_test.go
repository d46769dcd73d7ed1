// Package repro holds the top-level benchmark harness: one testing.B
// benchmark per experiment in DESIGN.md (E1–E11) plus the two figure
// reproductions (F1 architecture wiring, F2 SeeDB visualisation).
// `go test -bench=. -benchmem` regenerates per-operation numbers;
// `go run ./cmd/benchrunner` prints the full comparison tables.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mimic"
	"repro/internal/scalar"
	"repro/internal/searchlight"
	"repro/internal/seedb"
	"repro/internal/stream"
	"repro/internal/tupleware"
)

// ---------- shared fixtures ----------

func benchSystem(b *testing.B, patients int) *demo.System {
	b.Helper()
	cfg := mimic.DefaultConfig()
	cfg.Patients = patients
	sys, err := demo.Load(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func mustQuery(b *testing.B, p *core.Polystore, q string) *engine.Relation {
	b.Helper()
	rel, err := p.Query(q)
	if err != nil {
		b.Fatalf("Query(%q): %v", q, err)
	}
	return rel
}

// ---------- F1: architecture (Figure 1) ----------

// TestArchitectureFigure1 verifies the Figure 1 wiring: eight islands
// over four-plus engines, every engine reachable from at least one
// island, and CAST connecting them.
func TestArchitectureFigure1(t *testing.T) {
	cfg := mimic.DefaultConfig()
	cfg.Patients = 40
	sys, err := demo.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Poly
	if got := len(core.Islands()); got != 8 {
		t.Fatalf("Figure 1 requires 8 islands, got %d", got)
	}
	// Every degenerate island answers a native query.
	for _, q := range []string{
		`POSTGRES(SELECT COUNT(*) FROM patients)`,
		`SCIDB(aggregate(waveforms, count(v)))`,
		`TEXT(count(notes))`,
		`STREAM(appended(vitals))`,
	} {
		if _, err := p.Query(q); err != nil {
			t.Errorf("island query %q failed: %v", q, err)
		}
	}
	// Multi-engine islands reach engines through shims.
	if _, err := p.Query(`RELATIONAL(SELECT COUNT(*) FROM waveforms)`); err != nil {
		t.Errorf("relational island shim: %v", err)
	}
	if _, err := p.Query(`D4M(sumrows(assoc(notes)))`); err != nil {
		t.Errorf("d4m island shim: %v", err)
	}
	// CAST moves data between engines.
	if _, err := p.Cast("patients", core.EngineSciDB, core.CastOptions{}); err != nil {
		t.Errorf("cast: %v", err)
	}
}

// ---------- F2: SeeDB sample visualisation (Figure 2) ----------

// TestSeeDBFigure2 reproduces the paper's Figure 2: SeeDB surfaces the
// race × stay-duration view for the ICU cohort, whose trend reverses
// the rest of the data.
func TestSeeDBFigure2(t *testing.T) {
	cfg := mimic.DefaultConfig()
	cfg.Patients = 400
	ds, err := mimic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := admissionsFlat(ds)
	results, _, err := seedb.Explore(rel, "ward = 'icu'",
		[]string{"race", "sex", "drug"}, []string{"days"},
		[]seedb.Agg{seedb.AggAvg}, seedb.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	top := results[0]
	if top.View.Dim != "race" {
		t.Fatalf("top view %v, want the race dimension", top.View)
	}
	if !(top.Target["white"] < top.Target["black"] && top.Reference["white"] > top.Reference["black"]) {
		t.Errorf("trend not reversed: target %v reference %v", top.Target, top.Reference)
	}
}

func admissionsFlat(ds *mimic.Dataset) *engine.Relation {
	raceOf := map[int64]string{}
	sexOf := map[int64]string{}
	for _, p := range ds.Patients.Tuples {
		raceOf[p[0].I] = p[4].S
		sexOf[p[0].I] = p[3].S
	}
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("ward", engine.TypeString), engine.Col("race", engine.TypeString),
		engine.Col("sex", engine.TypeString), engine.Col("drug", engine.TypeString),
		engine.Col("days", engine.TypeFloat)))
	for _, a := range ds.Admissions.Tuples {
		pid := a[1].I
		_ = rel.Append(engine.Tuple{a[2], engine.NewString(raceOf[pid]), engine.NewString(sexOf[pid]), a[4], a[3]})
	}
	return rel
}

// TestExperimentsRunAll smoke-tests the full benchrunner path.
func TestExperimentsRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	tables, err := experiments.RunAll(experiments.Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 11 {
		t.Fatalf("expected 11 experiment tables, got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
	}
}

// ---------- E1 ----------

func BenchmarkE1_PolystoreVsOneSize(b *testing.B) {
	sys := benchSystem(b, 100)
	p := sys.Poly
	if _, err := p.Cast("waveforms", core.EnginePostgres, core.CastOptions{TargetName: "wf_rel"}); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Cast("notes", core.EnginePostgres, core.CastOptions{TargetName: "notes_rel"}); err != nil {
		b.Fatal(err)
	}
	b.Run("polystore_mixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustQuery(b, p, `POSTGRES(SELECT * FROM patients WHERE id = 42)`)
			mustQuery(b, p, `SCIDB(aggregate(subarray(waveforms, 1, 0, 5, 499), avg(v)))`)
			mustQuery(b, p, `TEXT(search(notes, 'very sick', 3))`)
		}
	})
	b.Run("one_size_relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustQuery(b, p, `POSTGRES(SELECT * FROM patients WHERE id = 42)`)
			mustQuery(b, p, `POSTGRES(SELECT AVG(v) FROM wf_rel WHERE patient <= 5)`)
			mustQuery(b, p, `POSTGRES(SELECT row, COUNT(*) FROM notes_rel WHERE value LIKE '%very sick%' GROUP BY row HAVING COUNT(*) >= 3)`)
		}
	})
}

// ---------- E2 ----------

func BenchmarkE2_CastBinaryVsCSV(b *testing.B) {
	p := core.New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("name", engine.TypeString),
		engine.Col("score", engine.TypeFloat)))
	for i := 0; i < 20_000; i++ {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)),
			engine.NewString(fmt.Sprintf("row_%d", i)), engine.NewFloat(float64(i) / 3)})
	}
	if err := p.Relational.InsertRelation("src", rel); err != nil {
		b.Fatal(err)
	}
	if err := p.Register("src", core.EnginePostgres, "src"); err != nil {
		b.Fatal(err)
	}
	benchCastVsCSV(b, p, "src", "")
}

// benchCastVsCSV runs the direct binary CAST of src into SciDB against
// E2's file-based CSV reference (experiments.CastViaCSV), as the
// sub-benchmarks binary<suffix> and csv_file<suffix>.
func benchCastVsCSV(b *testing.B, p *core.Polystore, src, suffix string) {
	b.Run("binary"+suffix, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := p.Cast(src, core.EngineSciDB, core.CastOptions{})
			if err != nil {
				b.Fatal(err)
			}
			_ = p.ArrayStore.Remove(res.Target)
			p.Deregister(res.Target)
		}
	})
	b.Run("csv_file"+suffix, func(b *testing.B) {
		tmp := b.TempDir()
		for i := 0; i < b.N; i++ {
			res, err := experiments.CastViaCSV(p, src, core.EngineSciDB, src+"_csv", tmp)
			if err != nil {
				b.Fatal(err)
			}
			_ = p.ArrayStore.Remove(res.Target)
			p.Deregister(res.Target)
		}
	})
}

// e2Relation builds the E2-shaped (int, string, float) relation used by
// the codec and pipeline benchmarks.
func e2Relation(rows int) *engine.Relation {
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("name", engine.TypeString),
		engine.Col("score", engine.TypeFloat)))
	for i := 0; i < rows; i++ {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)),
			engine.NewString(fmt.Sprintf("row_%d", i)), engine.NewFloat(float64(i) / 3)})
	}
	return rel
}

// BenchmarkE2_CodecRoundTrip times encode+decode of 10k rows through
// the columnar codec (the CAST pipe) and the row codec (server
// responses).
func BenchmarkE2_CodecRoundTrip(b *testing.B) {
	rel := e2Relation(10_000)
	b.Run("v2_columnar", func(b *testing.B) {
		cb := engine.BatchFromRelation(rel)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := cb.WriteBinary(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.ReadBinaryColumnar(&buf, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := rel.WriteBinary(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.ReadBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_CastPipeline measures the full pipelined CAST (encoder and
// decoder concurrent over a pipe) against the CSV file transport at a
// size large enough to engage the parallel decode path.
func BenchmarkE2_CastPipeline(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		p := core.New()
		name := fmt.Sprintf("src%d", rows)
		if err := p.Relational.InsertRelation(name, e2Relation(rows)); err != nil {
			b.Fatal(err)
		}
		if err := p.Register(name, core.EnginePostgres, name); err != nil {
			b.Fatal(err)
		}
		benchCastVsCSV(b, p, name, fmt.Sprintf("/%d", rows))
	}
}

// ---------- E3 ----------

func BenchmarkE3_StreamLatency(b *testing.B) {
	e := stream.NewEngine()
	schema := engine.NewSchema(engine.Col("patient", engine.TypeInt), engine.Col("v", engine.TypeFloat))
	if err := e.CreateStream("wf", schema, 125); err != nil {
		b.Fatal(err)
	}
	alerts := 0
	_ = e.RegisterTrigger("wf", "thresh", func(view *stream.WindowView, _ stream.Record) error {
		avg, err := view.Aggregate("avg", "v")
		if err != nil {
			return err
		}
		if avg > 0.95 {
			alerts++
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Append("wf", stream.Record{TS: int64(i),
			Values: engine.Tuple{engine.NewInt(1), engine.NewFloat(float64(i%100) / 100)}})
	}
	_ = alerts
}

// ---------- E4 ----------

func BenchmarkE4_SeeDBPruning(b *testing.B) {
	cfg := mimic.DefaultConfig()
	cfg.Patients = 400
	ds, err := mimic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rel := admissionsFlat(ds)
	dims := []string{"race", "sex", "drug"}
	run := func(b *testing.B, opts seedb.Options) {
		for i := 0; i < b.N; i++ {
			if _, _, err := seedb.Explore(rel, "ward = 'icu'", dims, []string{"days"},
				[]seedb.Agg{seedb.AggAvg, seedb.AggSum, seedb.AggCount}, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exhaustive", func(b *testing.B) { run(b, seedb.Options{K: 3}) })
	b.Run("pruned", func(b *testing.B) { run(b, seedb.Options{K: 3, Prune: true, Seed: 1}) })
}

// ---------- E5 ----------

func BenchmarkE5_TuplewareFusion(b *testing.B) {
	data := make([]tupleware.Row, 50_000)
	for i := range data {
		data[i] = tupleware.Row{float64(i % 100), float64((i * 7) % 100), 0}
	}
	p := tupleware.NewPipeline().
		Map(func(r tupleware.Row) tupleware.Row { r[2] = r[0]*0.3 + r[1]*0.7; return r },
			tupleware.UDFStats{EstCyclesPerCall: 20}).
		Filter(func(r tupleware.Row) bool { return r[2] > 10 }, tupleware.UDFStats{EstCyclesPerCall: 5}).
		Reduce(
			func() tupleware.Row { return tupleware.Row{0, 0} },
			func(acc, r tupleware.Row) tupleware.Row { acc[0] += r[2]; acc[1]++; return acc },
			func(x, y tupleware.Row) tupleware.Row { x[0] += y[0]; x[1] += y[1]; return x })
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.RunCompiled(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("staged_hadoop_style", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.RunStaged(data, tupleware.DefaultStagedConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E6 ----------

func BenchmarkE6_AdaptivePlacement(b *testing.B) {
	const n = 8192
	w := mimic.Waveform(1, 1, 0, n, 125, false)
	p := core.New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("t", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	for i, v := range w {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(v)})
	}
	if err := p.Relational.InsertRelation("wf_pg", rel); err != nil {
		b.Fatal(err)
	}
	if err := p.Register("wf_pg", core.EnginePostgres, "wf_pg"); err != nil {
		b.Fatal(err)
	}
	if err := p.Load(core.EngineSciDB, "wf_arr", rel, core.CastOptions{ArrayDims: []string{"t"}, Dense: true}); err != nil {
		b.Fatal(err)
	}
	b.Run("linear_algebra_on_postgres", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := p.Relational.Query(`SELECT v FROM wf_pg ORDER BY t`)
			if err != nil {
				b.Fatal(err)
			}
			vals, _ := res.Floats("v")
			_ = analytics.PowerSpectrum(vals)
		}
	})
	b.Run("linear_algebra_on_scidb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := p.ArrayStore.Get("wf_arr")
			if err != nil {
				b.Fatal(err)
			}
			vals, _ := a.Floats("v")
			_ = analytics.PowerSpectrum(vals)
		}
	})
}

// ---------- E7 ----------

func BenchmarkE7_TightVsLooseCoupling(b *testing.B) {
	const n = 16_384
	w := mimic.Waveform(1, 1, 0, n, 125, false)
	p := core.New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("t", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	for i, v := range w {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(v)})
	}
	if err := p.Load(core.EngineSciDB, "wf", rel, core.CastOptions{ArrayDims: []string{"t"}, Dense: true}); err != nil {
		b.Fatal(err)
	}
	b.Run("tight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ := p.ArrayStore.Get("wf")
			vals, _ := a.Floats("v")
			_ = analytics.PowerSpectrum(vals)
		}
	})
	b.Run("loose_cast_per_call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := p.Cast("wf", core.EnginePostgres, core.CastOptions{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := p.Relational.Query(`SELECT v FROM ` + res.Target + ` ORDER BY t`)
			if err != nil {
				b.Fatal(err)
			}
			vals, _ := out.Floats("v")
			_ = analytics.PowerSpectrum(vals)
			_ = p.Relational.DropTable(res.Target)
			p.Deregister(res.Target)
		}
	})
}

// ---------- E8 ----------

func BenchmarkE8_SearchlightSynopsis(b *testing.B) {
	sig := mimic.Waveform(1, 3, 0, 100_000, 125, false)
	q := searchlight.Query{
		WindowLen: 64,
		Constraints: []searchlight.Constraint{
			{Agg: "avg", Lo: -0.02, Hi: 0.02}, {Agg: "max", Lo: -10, Hi: 1.4}},
	}
	syn, err := searchlight.BuildSynopsis(sig, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("synopsis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := searchlight.Search(sig, syn, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := searchlight.SearchExhaustive(sig, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E9 ----------

func BenchmarkE9_ScalaRPrefetch(b *testing.B) {
	cfg := mimic.DefaultConfig()
	const patients, samples = 32, 2048
	src, err := demoMap(cfg.Seed, patients, samples, cfg.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	trace := [][3]int{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {2, 1, 0}, {2, 2, 0}, {2, 3, 0}, {2, 3, 1}, {2, 2, 1}}
	for _, prefetch := range []bool{false, true} {
		name := "no_prefetch"
		if prefetch {
			name = "prefetch"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				br, err := scalar.NewBrowser(src, "v", 16, 3, 256)
				if err != nil {
					b.Fatal(err)
				}
				br.Prefetch = prefetch
				for _, s := range trace {
					if _, err := br.Fetch(s[0], s[1], s[2]); err != nil {
						b.Fatal(err)
					}
					br.Quiesce() // think time: prefetch overlaps it
				}
			}
		})
	}
}

func demoMap(seed int64, patients, samples int, rate int) (*coreArray, error) {
	src, err := coreNewArray("bench_map", int64(patients), int64(samples))
	if err != nil {
		return nil, err
	}
	for pid := 1; pid <= patients; pid++ {
		w := mimic.Waveform(seed, pid, 0, samples, rate, false)
		for i, v := range w {
			if err := src.Set([]int64{int64(pid), int64(i)}, engine.Tuple{engine.NewFloat(v)}); err != nil {
				return nil, err
			}
		}
	}
	return src, nil
}

// ---------- E10 ----------

func BenchmarkE10_EngineSpecialisation(b *testing.B) {
	sys := benchSystem(b, 150)
	p := sys.Poly
	if _, err := p.Cast("patients", core.EngineAccumulo, core.CastOptions{TargetName: "patients_kv"}); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Cast("notes", core.EnginePostgres, core.CastOptions{TargetName: "notes_rel"}); err != nil {
		b.Fatal(err)
	}
	cases := map[string]string{
		"lookup/postgres":      `POSTGRES(SELECT * FROM patients WHERE id = 77)`,
		"lookup/accumulo":      `TEXT(get(patients_kv, '77'))`,
		"aggregate/postgres":   `POSTGRES(SELECT race, AVG(age) FROM patients GROUP BY race)`,
		"text_search/accumulo": `TEXT(search(notes, 'very sick', 3))`,
		"text_search/postgres": `POSTGRES(SELECT row, COUNT(*) FROM notes_rel WHERE value LIKE '%very sick%' GROUP BY row HAVING COUNT(*) >= 3)`,
		"array_agg/scidb":      `SCIDB(aggregate(waveforms, avg(v)))`,
	}
	for name, q := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, p, q)
			}
		})
	}
}

// ---------- E11 ----------

// BenchmarkE11_CastPushdown: the selective cross-island query with the
// pushdown planner on vs off — the E11 experiment as a benchmark.
func BenchmarkE11_CastPushdown(b *testing.B) {
	p := core.New()
	schema := engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("a", engine.TypeInt),
		engine.Col("b", engine.TypeFloat), engine.Col("c", engine.TypeString),
		engine.Col("d", engine.TypeString), engine.Col("e", engine.TypeFloat),
	)
	rel := engine.NewRelation(schema)
	for i := 0; i < 20_000; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(i % 100)),
			engine.NewFloat(float64(i) * 0.5), engine.NewString(fmt.Sprintf("name_%06d", i)),
			engine.NewString("xxxxxxxxxxxxxxxxxxxx"), engine.NewFloat(float64(i)),
		})
	}
	if err := p.Load(core.EnginePostgres, "big", rel, core.CastOptions{}); err != nil {
		b.Fatal(err)
	}
	const q = `RELATIONAL(SELECT a, b FROM CAST(big, relation) WHERE a < 10)`
	for _, on := range []bool{false, true} {
		name := "planner=off"
		if on {
			name = "planner=on"
		}
		b.Run(name, func(b *testing.B) {
			p.SetPushdown(on)
			defer p.SetPushdown(true)
			for i := 0; i < b.N; i++ {
				mustQuery(b, p, q)
			}
		})
	}
}
