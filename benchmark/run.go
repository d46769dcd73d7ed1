package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one named metric: its unit, which way is better, and
// for an end-to-end metric how much worse than the parent's median
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the served polystore would see.
// BENCHMARK.json repeats this table; the test keeps the two equal.
// The failure share is not among them: it is 0 on a healthy run, and a
// bound that is a share of the parent's median cannot hold a metric
// whose median is 0. It is the result's attempted and failed counts,
// and the loadgen.fail_ratio diagnostic.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "open_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "open_p95_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_query", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics of single layers, from the traced pass and
// the load generator. They carry no bound.
var perLayer = []metricDef{
	{Name: "client.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.request_codec_us", Unit: "us", Better: "lower"},
	{Name: "server.response_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "server.ping_ms", Unit: "ms", Better: "lower"},
	{Name: "server.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.refused", Unit: "count", Better: "lower"},
	{Name: "core.query_ms", Unit: "ms", Better: "lower"},
	{Name: "core.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cast_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cast.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.cast.rows_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "core.cast.rows_moved_per_query", Unit: "count", Better: "lower"},
	{Name: "core.cast.pushed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cast.retries", Unit: "count", Better: "lower"},
	{Name: "core.cast.rollbacks", Unit: "count", Better: "lower"},
	{Name: "core.scatter.fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scatter.shard_call_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scatter.slowest_shard_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scatter.skew_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.scatter.coord_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scatter.pushdown_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.scatter.shard_rows_per_query", Unit: "count", Better: "lower"},
	{Name: "core.scatter.shard_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.scatter.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "relational.parse_us", Unit: "us", Better: "lower"},
	{Name: "relational.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.rows_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "relational.rows_scanned_per_result_row", Unit: "ratio", Better: "lower"},
	{Name: "relational.alloc_kb_per_exec", Unit: "KiB", Better: "lower"},
	{Name: "relational.colcache_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.encode_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "engine.to_relation_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.from_relation_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_agg_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.open_samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.closed_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "budget.residual_ratio", Unit: "ratio", Better: "lower"},
}

// runConfig is how one workload is run.
type runConfig struct {
	seed   int64
	sz     sizes
	setups int // set-up is repeated this often and its median reported
	closed time.Duration
	open   time.Duration
	traced time.Duration
	outDir string    // where the span file goes
	log    io.Writer // progress, for a person
}

// result is one workload's measurements.
type result struct {
	Workload  string                        `json:"workload"`
	Seed      int64                         `json:"seed"`
	Correct   bool                          `json:"correct"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	EndToEnd  map[string]float64            `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64            `json:"per_layer,omitempty"`
	PerShape  map[string]map[string]float64 `json:"-"` // in the span file
	Errors    []string                      `json:"-"` // printed
}

// setUp builds a workload's federation, computes the oracle's answers,
// serves it, dials the clients and warms every pooled query through
// every connection. The warm-up is a fixed amount of work, not a fixed
// time, so set-up time moves when set-up gets more expensive.
func setUp(w workload, seed int64, sz sizes) (_ *fixture, _ []*worker, err error) {
	fx, err := w.build(seed, sz)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	var ws []*worker
	defer func() {
		if err != nil {
			closeWorkers(ws)
			fx.close()
		}
	}()
	if err = fx.answerAll(); err != nil {
		return nil, nil, err
	}
	if fx.addr, err = fx.serve(fx.poly); err != nil {
		return nil, nil, err
	}
	if ws, err = dialWorkers(fx, seed); err != nil {
		return nil, nil, err
	}
	for _, wk := range ws {
		if err = wk.warm(); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return fx, ws, nil
}

// runWorkload sets a workload up, runs the untraced closed and open
// loops, then the traced pass, and checks the state the run left.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, EndToEnd: map[string]float64{}}
	var fx *fixture
	var ws []*worker
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if fx != nil {
			closeWorkers(ws)
			fx.close()
			fx, ws = nil, nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if fx, ws, err = setUp(w, cfg.seed, cfg.sz); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer fx.close()
	defer closeWorkers(ws)
	res.EndToEnd["setup_s"] = median(setupS)
	fmt.Fprintf(cfg.log, "%s: set up %d times, median %.3f s\n", w.name, cfg.setups, res.EndToEnd["setup_s"])

	runtime.GC()
	heap := startHeapSampler()
	closed := closedLoop(ws, cfg.closed)
	open := openLoop(ws, w.openRate, cfg.open)
	peak := heap.peak()

	noteErrs := func(errs []error) {
		for _, e := range errs {
			if len(res.Errors) < 10 {
				res.Errors = append(res.Errors, e.Error())
			}
		}
	}
	noteErrs(closed.firstErrs)
	noteErrs(open.firstErrs)
	res.Attempted = closed.attempted + open.attempted
	res.Failed = closed.failed + open.failed

	lat, olat := sortedCopy(closed.latMS), sortedCopy(open.latMS)
	n := float64(closed.correct())
	e := res.EndToEnd
	e["qps"] = n / closed.elapsed.Seconds()
	e["p50_ms"] = percentile(lat, 0.50)
	e["p95_ms"] = percentile(lat, 0.95)
	e["open_p50_ms"] = percentile(olat, 0.50)
	e["open_p95_ms"] = percentile(olat, 0.95)
	e["cpu_ms_per_query"] = float64(closed.cpu) / float64(time.Millisecond) / n
	e["alloc_kb_per_query"] = float64(closed.allocB) / 1024 / n
	e["peak_heap_mb"] = peak / (1 << 20)
	fmt.Fprintf(cfg.log, "%s: closed loop %d clients %.1f s: %d answers (supports p%g), %d failed; open loop %.0f qps %.1f s: %d answers (supports p%g), %d failed\n",
		w.name, len(ws), closed.elapsed.Seconds(), closed.correct(), 100*highestSupported(closed.correct()), closed.failed,
		w.openRate, open.elapsed.Seconds(), open.correct(), 100*highestSupported(open.correct()), open.failed)

	if cfg.traced > 0 {
		rec := newRecorder()
		ls, attempted, errs := tracedPass(fx, rec, cfg.seed, cfg.traced)
		noteErrs(errs)
		res.Attempted += attempted
		res.Failed += len(errs)
		res.PerLayer = layerMetrics(ls)
		res.PerShape = shapeTable(ls)
		l := res.PerLayer
		l["server.refused"] = float64(closed.refused + open.refused)
		l["loadgen.samples"] = float64(closed.correct())
		l["loadgen.open_samples"] = float64(open.correct())
		l["loadgen.late_p95_ms"] = percentile(sortedCopy(open.lateMS), 0.95)
		l["loadgen.closed_p99_ms"] = missing
		if supports(len(lat), 0.99) {
			l["loadgen.closed_p99_ms"] = percentile(lat, 0.99)
		}
		l["loadgen.fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
			if err := rec.write(path, w.name, cfg.seed, res.PerShape); err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.log, "%s: traced pass: %d requests, %d spans in %s\n", w.name, attempted, len(rec.spans), path)
		}
	}

	if fx.check != nil {
		if err := fx.check(fx); err != nil {
			res.Failed++
			noteErrs([]error{err})
		}
	}
	res.Correct = res.Failed == 0 && closed.correct() > 0 && open.correct() > 0
	for name, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			noteErrs([]error{fmt.Errorf("%s: %s has no value", w.name, name)})
			e[name] = missing
		}
	}
	return res, nil
}

// printResult prints every metric by name with its unit.
func printResult(out io.Writer, res *result) {
	fmt.Fprintf(out, "\n== %s  seed %d  correct=%v  attempted=%d  failed=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			if v := res.PerLayer[d.Name]; v == missing {
				fmt.Fprintf(out, "  %-40s %14s %s\n", d.Name, "missing", d.Unit)
			} else {
				fmt.Fprintf(out, "  %-40s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		shapes := make([]string, 0, len(res.PerShape))
		for s := range res.PerShape {
			shapes = append(shapes, s)
		}
		sort.Strings(shapes)
		fmt.Fprintf(out, "  per shape: %-24s %10s %10s %10s %10s\n", "", "rtt_ms", "core_ms", "exec_ms", "resp_B")
		for _, s := range shapes {
			row := res.PerShape[s]
			fmt.Fprintf(out, "             %-24s %10.4f %10.4f %10.4f %10.0f\n", s,
				row["client.rtt_ms"], row["core.query_ms"], row["relational.exec_ms"], row["server.response_bytes_per_query"])
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}
