// Package experiments regenerates every evaluation artefact of the
// BigDAWG demo paper. The paper has no numeric tables — its evaluation
// is the set of demo scenarios plus explicit quantitative claims — so
// each experiment measures one claim and prints the series a reader
// would compare against the paper. DESIGN.md maps experiment IDs to
// paper sections; EXPERIMENTS.md records claim vs measurement.
package experiments

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/mimic"
	"repro/internal/seedb"
	"repro/internal/tupleware"
)

// Table is one regenerated experiment output.
type Table struct {
	ID     string
	Title  string
	Claim  string // what the paper says
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table for the terminal and EXPERIMENTS.md.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "paper claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "  %-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks sizes for CI; full sizes for the recorded results.
	Quick bool
	Seed  int64
}

func (c Config) scale(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) ([]Table, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	runs := []func(Config) (Table, error){
		E1PolystoreVsOneSize, E2CastBinaryVsCSV, E3StreamLatency,
		E4SeeDBPruning, E5TuplewareFusion, E6AdaptivePlacement,
		E7TightVsLooseCoupling, E8SearchlightSynopsis, E9ScalaRPrefetch,
		E10EngineSpecialisation, E11CastPushdown,
	}
	out := make([]Table, 0, len(runs))
	for _, run := range runs {
		t, err := run(cfg)
		if err != nil {
			return out, fmt.Errorf("experiment %T: %w", run, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6) }

// minTiming clamps sub-resolution measurements so ratio cells stay
// finite and parseable: a quick-mode run that finishes inside the timer
// granularity reports against this floor instead of dividing by ~zero.
const minTiming = time.Microsecond

func ratio(slow, fast time.Duration) string {
	if slow < minTiming {
		slow = minTiming
	}
	if fast < minTiming {
		fast = minTiming
	}
	return fmt.Sprintf("%.1fx", float64(slow)/float64(fast))
}

// E1PolystoreVsOneSize runs the mixed MIMIC workload on the polystore
// (each task on its specialised engine) and on two one-size-fits-all
// configurations where every dataset is forced into a single engine.
// §4 claims the polystore outperforms one-size-fits-all by one to two
// orders of magnitude.
func E1PolystoreVsOneSize(cfg Config) (Table, error) {
	mcfg := mimic.DefaultConfig()
	mcfg.Seed = cfg.Seed
	mcfg.Patients = cfg.scale(100, 300)
	sys, err := demo.Load(mcfg)
	if err != nil {
		return Table{}, err
	}
	p := sys.Poly
	rate := mcfg.SampleRate
	iters := cfg.scale(3, 10)

	// The mixed workload: one of each demo query class.
	type task struct {
		name string
		poly func() error // specialised engine
		rel  func() error // everything-in-relational baseline
		kv   func() error // everything-in-kv baseline
	}

	// Baseline 1: force waveforms + notes into the relational engine.
	wfRes, err := p.Cast("waveforms", core.EnginePostgres, core.CastOptions{TargetName: "wf_rel"})
	if err != nil {
		return Table{}, err
	}
	notesRes, err := p.Cast("notes", core.EnginePostgres, core.CastOptions{TargetName: "notes_rel"})
	if err != nil {
		return Table{}, err
	}
	// Baseline 2: force everything into the key-value engine.
	patKV, err := p.Cast("patients", core.EngineAccumulo, core.CastOptions{TargetName: "patients_kv"})
	if err != nil {
		return Table{}, err
	}
	wfKV, err := p.Cast("waveforms", core.EngineAccumulo, core.CastOptions{TargetName: "wf_kv"})
	if err != nil {
		return Table{}, err
	}

	// Streaming fixtures: the polystore gets a dedicated stream with a
	// windowed-average trigger; the baselines get tables pre-loaded with
	// the same "history" the stream has already absorbed, since a
	// traditional engine retains every ingested record (§2.3: they "lack
	// the ability to handle the high insert rates intrinsic to streams").
	const streamWindow = 125
	historyLen := cfg.scale(2_000, 10_000)
	if err := p.Streams.CreateStream("bench_stream", engine.NewSchema(
		engine.Col("patient", engine.TypeInt), engine.Col("v", engine.TypeFloat)), streamWindow); err != nil {
		return Table{}, err
	}
	alerted := 0
	if err := p.Streams.RegisterTrigger("bench_stream", "avg_alert",
		func(view *streamWindowView, _ streamRecord) error {
			avg, err := view.Aggregate("avg", "v")
			if err != nil {
				return err
			}
			if avg > 0.95 {
				alerted++
			}
			return nil
		}); err != nil {
		return Table{}, err
	}
	if _, err := p.Relational.Execute(`CREATE TABLE stream_rel (patient INT, v FLOAT)`); err != nil {
		return Table{}, err
	}
	if err := p.KV.CreateTable("stream_kv"); err != nil {
		return Table{}, err
	}
	histRel := engine.NewRelation(engine.NewSchema(
		engine.Col("patient", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	var histKV []kvstoreEntry
	for i := 0; i < historyLen; i++ {
		v := float64(i%100) / 100
		_ = histRel.Append(engine.Tuple{engine.NewInt(1), engine.NewFloat(v)})
		e := kvEntry(1, v)
		e.Key.Qualifier = fmt.Sprintf("v%08d", i)
		histKV = append(histKV, e)
		_ = p.Streams.Append("bench_stream", streamRecord{TS: int64(i),
			Values: engine.Tuple{engine.NewInt(1), engine.NewFloat(v)}})
	}
	if err := p.Relational.InsertRelation("stream_rel", histRel); err != nil {
		return Table{}, err
	}
	if err := p.KV.PutBatch("stream_kv", histKV); err != nil {
		return Table{}, err
	}

	streamTS := int64(historyLen)
	tasks := []task{
		{
			name: "selective lookup",
			poly: func() error {
				_, err := p.Query(`POSTGRES(SELECT * FROM patients WHERE id = 42)`)
				return err
			},
			rel: func() error {
				_, err := p.Query(`POSTGRES(SELECT * FROM patients WHERE id = 42)`)
				return err
			},
			kv: func() error {
				_, err := p.Query(`TEXT(get(` + patKV.Target + `, '42'))`)
				return err
			},
		},
		{
			name: "waveform aggregate",
			poly: func() error {
				_, err := p.Query(`SCIDB(aggregate(waveforms, avg(v)))`)
				return err
			},
			rel: func() error {
				_, err := p.Query(`POSTGRES(SELECT AVG(v) FROM ` + wfRes.Target + `)`)
				return err
			},
			kv: func() error {
				// KV has no aggregates: full scan + client-side fold.
				rel, err := p.Query(`TEXT(scan(` + wfKV.Target + `))`)
				if err != nil {
					return err
				}
				sum, n := 0.0, 0
				vi := rel.Schema.Index("value")
				for _, t := range rel.Tuples {
					sum += t[vi].AsFloat()
					n++
				}
				_ = sum / float64(n+1)
				return nil
			},
		},
		{
			name: "text search",
			poly: func() error {
				_, err := p.Query(`TEXT(search(notes, 'very sick', 3))`)
				return err
			},
			rel: func() error {
				// Relational text search: LIKE scan + GROUP BY.
				_, err := p.Query(`POSTGRES(SELECT row, COUNT(*) AS n FROM ` + notesRes.Target +
					` WHERE value LIKE '%very sick%' GROUP BY row HAVING COUNT(*) >= 3)`)
				return err
			},
			kv: func() error {
				_, err := p.Query(`TEXT(search(notes, 'very sick', 3))`)
				return err
			},
		},
		{
			// 25 samples arrive; each must update a 125-sample windowed
			// average (the alert condition). The stream engine keeps the
			// window in memory; the baselines rescan their ever-growing
			// stores per arrival.
			name: "streaming alert (25 samples)",
			poly: func() error {
				for i := 0; i < rate/5; i++ {
					streamTS++
					if err := p.Streams.Append("bench_stream", streamRecord{TS: streamTS,
						Values: engine.Tuple{engine.NewInt(1), engine.NewFloat(0.5)}}); err != nil {
						return err
					}
				}
				return nil
			},
			rel: func() error {
				for i := 0; i < rate/5; i++ {
					if _, err := p.Relational.Execute(`INSERT INTO stream_rel VALUES (1, 0.5)`); err != nil {
						return err
					}
					if _, err := p.Relational.Query(`SELECT AVG(v) FROM stream_rel`); err != nil {
						return err
					}
				}
				return nil
			},
			kv: func() error {
				for i := 0; i < rate/5; i++ {
					if err := p.KV.Put("stream_kv", kvEntry(1, 0.5)); err != nil {
						return err
					}
					rel, err := p.Query(`TEXT(scan(stream_kv))`)
					if err != nil {
						return err
					}
					sum := 0.0
					vi := rel.Schema.Index("value")
					for _, t := range rel.Tuples {
						sum += t[vi].AsFloat()
					}
					_ = sum
				}
				return nil
			},
		},
	}

	// One untimed call first. The polystore runs each task before the
	// baselines, so without it the polystore alone pays first-touch costs:
	// the identical selective lookup timed 2× slower on its side. The
	// runtime.GC keeps the previous task's garbage (the kv baseline's
	// scans) from being collected during the next timing.
	timeIt := func(fn func() error) (time.Duration, error) {
		if err := fn(); err != nil {
			return 0, err
		}
		runtime.GC()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), nil
	}

	t := Table{
		ID:     "E1",
		Title:  "mixed MIMIC workload: polystore vs one-size-fits-all",
		Claim:  "§4: polystore outperforms a one-size-fits-all system by 1–2 orders of magnitude",
		Header: []string{"task", "polystore(ms)", "all-relational(ms)", "all-kv(ms)"},
	}
	var totalPoly, totalRel, totalKV time.Duration
	for _, task := range tasks {
		dp, err := timeIt(task.poly)
		if err != nil {
			return t, fmt.Errorf("%s poly: %w", task.name, err)
		}
		dr, err := timeIt(task.rel)
		if err != nil {
			return t, fmt.Errorf("%s rel: %w", task.name, err)
		}
		dk, err := timeIt(task.kv)
		if err != nil {
			return t, fmt.Errorf("%s kv: %w", task.name, err)
		}
		totalPoly += dp
		totalRel += dr
		totalKV += dk
		t.Rows = append(t.Rows, []string{task.name, ms(dp), ms(dr), ms(dk)})
	}
	t.Rows = append(t.Rows, []string{"TOTAL", ms(totalPoly), ms(totalRel), ms(totalKV)})
	t.Notes = fmt.Sprintf("polystore wins overall: %s vs all-relational, %s vs all-kv",
		ratio(totalRel, totalPoly), ratio(totalKV, totalPoly))
	return t, nil
}

func kvEntry(patient int, v float64) (e kvstoreEntry) {
	e.Key.Row = fmt.Sprintf("p%06d", patient)
	e.Key.Family = "s"
	e.Key.Qualifier = "v"
	e.Value = fmt.Sprint(v)
	return e
}

// CastViaCSV is E2's reference transport — the file-based
// import/export the paper's direct binary cast is measured against,
// kept here rather than as a mode of core.Cast: dump the object, write
// it to a CSV file under dir (os.TempDir when empty), re-import the
// file, load the result into the target engine as target. Bytes is the
// file's size.
func CastViaCSV(p *core.Polystore, object string, to core.EngineKind, target, dir string) (core.CastResult, error) {
	start := time.Now()
	res := core.CastResult{Object: object, To: to, Target: target}
	rel, err := p.Dump(object)
	if err != nil {
		return res, err
	}
	f, err := os.CreateTemp(dir, "bigdawg_cast_*.csv")
	if err != nil {
		return res, err
	}
	path := f.Name()
	defer os.Remove(path)
	bw := bufio.NewWriter(f)
	err = rel.WriteCSV(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return res, err
	}
	res.Bytes = fi.Size()
	rf, err := os.Open(path)
	if err != nil {
		return res, err
	}
	out, err := engine.ReadCSV(bufio.NewReader(rf))
	rf.Close()
	if err != nil {
		return res, err
	}
	if err := p.Load(to, target, out, core.CastOptions{}); err != nil {
		return res, err
	}
	res.Rows = out.Len()
	res.Elapsed = time.Since(start)
	return res, nil
}

// E2CastBinaryVsCSV measures CAST throughput via the direct binary
// transport against file-based CSV import/export, by cardinality.
func E2CastBinaryVsCSV(cfg Config) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "CAST transport: direct binary vs file-based CSV",
		Claim:  "§2.1: casts should be more efficient than file-based import/export",
		Header: []string{"rows", "binary(ms)", "csv-file(ms)", "binary speedup"},
	}
	sizes := []int{1_000, 10_000}
	if !cfg.Quick {
		sizes = append(sizes, 100_000)
	}
	for _, n := range sizes {
		p := core.New()
		rel := engine.NewRelation(engine.NewSchema(
			engine.Col("id", engine.TypeInt), engine.Col("name", engine.TypeString),
			engine.Col("score", engine.TypeFloat)))
		for i := 0; i < n; i++ {
			_ = rel.Append(engine.Tuple{
				engine.NewInt(int64(i)), engine.NewString(fmt.Sprintf("row_%d", i)),
				engine.NewFloat(float64(i) / 3)})
		}
		if err := p.Relational.InsertRelation("src", rel); err != nil {
			return t, err
		}
		if err := p.Register("src", core.EnginePostgres, "src"); err != nil {
			return t, err
		}
		// One untimed warm-up rep (page cache, allocator, goroutine pool),
		// then best-of-N: the mean of cold and warm reps measured nothing
		// but scheduler noise at quick sizes and made this table flaky.
		timeCast := func(cast func() (core.CastResult, error)) (time.Duration, error) {
			const reps = 5
			best := time.Duration(1<<63 - 1)
			for i := 0; i <= reps; i++ {
				res, err := cast()
				if err != nil {
					return 0, err
				}
				if i > 0 && res.Elapsed < best {
					best = res.Elapsed
				}
				_ = p.ArrayStore.Remove(res.Target)
				p.Deregister(res.Target)
			}
			return best, nil
		}
		db, err := timeCast(func() (core.CastResult, error) {
			return p.Cast("src", core.EngineSciDB, core.CastOptions{})
		})
		if err != nil {
			return t, err
		}
		dc, err := timeCast(func() (core.CastResult, error) {
			return CastViaCSV(p, "src", core.EngineSciDB, "src_csv", "")
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), ms(db), ms(dc), ratio(dc, db)})
	}
	t.Notes = "binary path skips text formatting/parsing and filesystem round trips"
	return t, nil
}

// E3StreamLatency measures S-Store ingest→alert latency and throughput
// with a windowed-aggregate trigger armed, at MIMIC's 125 Hz shape.
func E3StreamLatency(cfg Config) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "streaming ingest latency with windowed trigger",
		Claim:  "§1.2: hundreds of Hz with response times in the tens of milliseconds",
		Header: []string{"window", "appends", "avg latency(µs)", "max latency(µs)", "throughput(appends/s)"},
	}
	mcfg := mimic.DefaultConfig()
	n := cfg.scale(5_000, 50_000)
	for _, window := range []int{125, 1250} {
		sys, err := demo.Load(mimic.Config{
			Seed: cfg.Seed, Patients: 10, SampleRate: mcfg.SampleRate,
			WaveformSeconds: 1, NotesPerPatient: 1, LabsPerPatient: 1,
		})
		if err != nil {
			return t, err
		}
		_ = window // demo fixes window to SampleRate; measure with its engine directly below.
		e := sys.Poly.Streams
		if err := e.CreateStream("bench", engine.NewSchema(
			engine.Col("patient", engine.TypeInt), engine.Col("v", engine.TypeFloat)), window); err != nil {
			return t, err
		}
		alerts := 0
		if err := e.RegisterTrigger("bench", "thresh", func(view *streamWindowView, rec streamRecord) error {
			avg, err := view.Aggregate("avg", "v")
			if err != nil {
				return err
			}
			if avg > 0.95 {
				alerts++
			}
			return nil
		}); err != nil {
			return t, err
		}
		var maxLat time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			if err := e.Append("bench", streamRecord{
				TS:     int64(i),
				Values: engine.Tuple{engine.NewInt(1), engine.NewFloat(float64(i%100) / 100)},
			}); err != nil {
				return t, err
			}
			if lat := time.Since(s); lat > maxLat {
				maxLat = lat
			}
		}
		elapsed := time.Since(start)
		avgLat := elapsed / time.Duration(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(window), fmt.Sprint(n),
			fmt.Sprintf("%.1f", float64(avgLat.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(maxLat.Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()),
		})
	}
	t.Notes = "paper needs ~125 appends/s per patient and tens-of-ms alerts; both hold with orders of magnitude to spare"
	return t, nil
}

// E4SeeDBPruning contrasts exhaustive view search with sampling +
// confidence-interval pruning, checking the top view is preserved
// (Figure 2's race×stay view).
func E4SeeDBPruning(cfg Config) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "SeeDB: exhaustive vs sampled+pruned view search",
		Claim:  "§2.2: sampling and pruning give reasonable response times while finding the same interesting views",
		Header: []string{"mode", "sample", "rows processed", "views pruned", "time(ms)", "top view"},
	}
	mcfg := mimic.DefaultConfig()
	mcfg.Seed = cfg.Seed
	mcfg.Patients = cfg.scale(400, 2000)
	ds, err := mimic.Generate(mcfg)
	if err != nil {
		return t, err
	}
	rel := flattenAdmissions(ds)
	// The partitioning attribute (ward) is excluded from the candidate
	// dimensions, as SeeDB does — a view keyed on the target predicate's
	// own attribute deviates trivially.
	dims := []string{"race", "sex", "drug"}
	measures := []string{"days"}
	aggs := []seedb.Agg{seedb.AggAvg, seedb.AggSum, seedb.AggCount}

	run := func(opts seedb.Options) ([]seedb.Result, seedb.Stats, time.Duration, error) {
		start := time.Now()
		res, stats, err := seedb.Explore(rel, "ward = 'icu'", dims, measures, aggs, opts)
		return res, stats, time.Since(start), err
	}
	full, fullStats, fullTime, err := run(seedb.Options{K: 3})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"exhaustive", "-",
		fmt.Sprint(fullStats.RowsProcessed), "0", ms(fullTime), full[0].View.String()})
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		res, stats, dur, err := run(seedb.Options{K: 3, Prune: true, SampleFraction: frac, Seed: cfg.Seed})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{"pruned", fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprint(stats.RowsProcessed), fmt.Sprint(stats.ViewsPruned), ms(dur), res[0].View.String()})
	}
	t.Notes = "all modes surface the race dimension — the Figure 2 finding; pruning pays off as the view lattice and data grow"
	return t, nil
}

// E5TuplewareFusion compares the fused ("compiled") pipeline with the
// materialising staged baseline on a k-means-style UDF workload.
func E5TuplewareFusion(cfg Config) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "Tupleware: fused pipeline vs Hadoop-style staged execution",
		Claim:  "§2.5: nearly two orders of magnitude faster than the standard Hadoop codeline",
		Header: []string{"rows", "fused(ms)", "staged(ms)", "speedup"},
	}
	sizes := []int{10_000, 50_000}
	if !cfg.Quick {
		sizes = append(sizes, 200_000)
	}
	for _, n := range sizes {
		data := make([]tupleware.Row, n)
		for i := range data {
			data[i] = tupleware.Row{float64(i % 100), float64((i * 7) % 100), 0}
		}
		p := tupleware.NewPipeline().
			Map(func(r tupleware.Row) tupleware.Row {
				r[2] = r[0]*0.3 + r[1]*0.7
				return r
			}, tupleware.UDFStats{EstCyclesPerCall: 20}).
			Filter(func(r tupleware.Row) bool { return r[2] > 10 }, tupleware.UDFStats{EstCyclesPerCall: 5}).
			Map(func(r tupleware.Row) tupleware.Row {
				r[2] = r[2] * r[2]
				return r
			}, tupleware.UDFStats{EstCyclesPerCall: 10}).
			Reduce(
				func() tupleware.Row { return tupleware.Row{0, 0} },
				func(acc, r tupleware.Row) tupleware.Row { acc[0] += r[2]; acc[1]++; return acc },
				func(a, b tupleware.Row) tupleware.Row { a[0] += b[0]; a[1] += b[1]; return a },
			)
		start := time.Now()
		fusedAcc, _, err := p.RunCompiled(data)
		if err != nil {
			return t, err
		}
		fused := time.Since(start)
		start = time.Now()
		stagedAcc, _, err := p.RunStaged(data, tupleware.DefaultStagedConfig())
		if err != nil {
			return t, err
		}
		staged := time.Since(start)
		if fusedAcc[1] != stagedAcc[1] {
			return t, fmt.Errorf("fused and staged disagree: %v vs %v", fusedAcc, stagedAcc)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), ms(fused), ms(staged), ratio(staged, fused)})
	}
	t.Notes = "staged mode materialises + serialises between stages and pays per-stage scheduling, as Hadoop does"
	return t, nil
}

func flattenAdmissions(ds *mimic.Dataset) *engine.Relation {
	raceOf := map[int64]string{}
	sexOf := map[int64]string{}
	for _, p := range ds.Patients.Tuples {
		raceOf[p[0].I] = p[4].S
		sexOf[p[0].I] = p[3].S
	}
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("ward", engine.TypeString), engine.Col("race", engine.TypeString),
		engine.Col("sex", engine.TypeString), engine.Col("drug", engine.TypeString),
		engine.Col("days", engine.TypeFloat),
	))
	for _, a := range ds.Admissions.Tuples {
		pid := a[1].I
		_ = rel.Append(engine.Tuple{a[2], engine.NewString(raceOf[pid]), engine.NewString(sexOf[pid]), a[4], a[3]})
	}
	return rel
}
