package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/relational"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/trace"
)

// missing is the value of a per-layer metric no shape of the workload
// produced a sample for (a span that does not exist on that path): a
// missing measurement is never reported as 0.
const missing = -1

// layerSamples holds the traced pass's samples: metric → shape → values.
type layerSamples struct {
	fx *fixture
	by map[string][][]float64
}

func (ls *layerSamples) add(metric string, shape int, v float64) {
	if ls.by[metric] == nil {
		ls.by[metric] = make([][]float64, len(ls.fx.shapes))
	}
	ls.by[metric][shape] = append(ls.by[metric][shape], v)
}

func (ls *layerSamples) addDur(metric string, shape int, d time.Duration, unit time.Duration) {
	ls.add(metric, shape, float64(d)/float64(unit))
}

// shapeMedian is the median of one shape's samples of a metric.
func (ls *layerSamples) shapeMedian(metric string, shape int) (float64, bool) {
	if ls.by[metric] == nil || len(ls.by[metric][shape]) == 0 {
		return 0, false
	}
	return median(ls.by[metric][shape]), true
}

// weighted is a metric's per-shape medians weighted by the workload
// mix: what the metric costs per operation of the workload. A shape
// with no samples (the layer is not on its path) contributes nothing;
// a metric no shape sampled is missing. Because the weighting is
// linear, the weighted parts of a budget sum like the per-shape parts.
func (ls *layerSamples) weighted(metric string) float64 {
	if ls.by[metric] == nil {
		return missing
	}
	var sum float64
	for _, si := range ls.fx.mix {
		if m, ok := ls.shapeMedian(metric, si); ok {
			sum += m
		}
	}
	return sum / float64(len(ls.fx.mix))
}

// ratio divides two weighted metrics; it is missing when either is, or
// when the base is 0.
func (ls *layerSamples) ratio(num, den string) float64 {
	n, d := ls.weighted(num), ls.weighted(den)
	if n == missing || d == missing || d == 0 {
		return missing
	}
	return n / d
}

// counterSet reads the polystore's public cast and scatter counters.
type counterSet struct {
	castBytes, castScanned, castMoved, castPushed, castFull, castRetries, castRollbacks int64
	scatterCount, scatterPushed                                                         int64
	relScanned                                                                          int64
}

func readCounters(fx *fixture) counterSet {
	m := fx.poly.Metrics
	cs := counterSet{
		castBytes: m.Counter("cast.wire_bytes").Load(), castScanned: m.Counter("cast.rows_scanned").Load(),
		castMoved: m.Counter("cast.rows_moved").Load(), castPushed: m.Counter("cast.pushed").Load(),
		castFull: m.Counter("cast.full").Load(), castRetries: m.Counter("cast.retries").Load(),
		castRollbacks: m.Counter("cast.rollbacks").Load(),
		scatterCount:  m.Counter("scatter.count").Load(), scatterPushed: m.Counter("scatter.pushdown").Load(),
	}
	for _, n := range fx.nodes {
		cs.relScanned += n.Relational.Stats().RowsScanned
	}
	return cs
}

// scopeBody splits "ISLAND(body)" for the shapes the benchmark itself
// wrote.
func scopeBody(q string) (island, body string) {
	open := strings.IndexByte(q, '(')
	return strings.ToUpper(q[:open]), q[open+1 : len(q)-1]
}

// maxTracedRounds caps the traced pass: 200 samples per shape settle
// every median, and the spans of more requests than that only make the
// span file large.
const maxTracedRounds = 200

// tracedPass runs one client sequentially over every shape, for about
// d or maxTracedRounds rounds, recording a span around each public
// call and replaying each request's payload through the layers' public
// functions. It returns the samples, how many requests it attempted
// and the first errors.
func tracedPass(fx *fixture, rec *recorder, seed int64, d time.Duration) (*layerSamples, int, []error) {
	ls := &layerSamples{fx: fx, by: map[string][][]float64{}}
	var errs []error
	fail := func(err error) {
		if len(errs) < 5 {
			errs = append(errs, err)
		}
	}
	c, err := client.Dial(fx.addr)
	if err != nil {
		return ls, 1, []error{err}
	}
	defer func() { _ = c.Close() }()
	var direct *client.Client
	if fx.directAddr != "" {
		if direct, err = client.Dial(fx.directAddr); err != nil {
			return ls, 1, []error{err}
		}
		defer func() { _ = direct.Close() }()
	}
	rng := rand.New(rand.NewSource(seed + 7))
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	deadline := time.Now().Add(d)
	attempted, req := 0, 0
	for round := 0; round < 3 || (round < maxTracedRounds && time.Now().Before(deadline)); round++ {
		for si, sh := range fx.shapes {
			req++
			attempted++
			if err := traceOne(ctx, fx, rec, ls, c, direct, rng, req, round, si, sh); err != nil {
				fail(fmt.Errorf("traced %s: %w", sh.name, err))
			}
		}
	}
	return ls, attempted, errs
}

// traceOne measures one request of one shape at every layer boundary.
func traceOne(ctx context.Context, fx *fixture, rec *recorder, ls *layerSamples,
	c, direct *client.Client, rng *rand.Rand, req, round, si int, sh *shape) error {
	var err error
	var rel *engine.Relation

	// One pooled query serves every step of the request, so the parts
	// are parts of the same whole; only an INSERT is minted afresh for
	// each execution.
	q, want := fx.query(sh, rng)
	next := func() {
		if sh.insert {
			q, want = fx.query(sh, rng)
		}
	}

	// The replays of the previous request left the connection's
	// goroutines parked. A discarded ping wakes them, so each measured
	// round trip below starts as the next one does: right behind another.
	if err := c.Ping(ctx); err != nil {
		return err
	}

	// The whole: the served round trip at one client, tracing off. And
	// the same round trip under EXPLAIN ANALYZE, where the server traces
	// the query and ships the span report with the result. Which of the
	// two goes first alternates by round, so neither is always the one
	// that finds the caches warm.
	var rttID int
	var rtt time.Duration
	plain := func() error {
		rttID, rtt = rec.timed(req, 0, sh.name, "server/client", "client.rtt", func() { rel, err = c.Query(ctx, q) })
		if err != nil {
			return err
		}
		if err := want.check(rel, sh.ordered); err != nil {
			return fmt.Errorf("%s: wrong answer: %w", q, err)
		}
		ls.addDur("client.rtt_ms", si, rtt, time.Millisecond)
		ls.add("result_rows", si, float64(rel.Len()))
		if !sh.insert {
			return nil
		}
		// The write invalidated the table's column cache: the first
		// columnar dump rebuilds it, the second finds it warm.
		_, first := rec.timed(req, rttID, sh.name, "relational", "relational.dump_cold", func() { _, err = fx.poly.Relational.DumpBatch(fx.insertTable) })
		if err != nil {
			return err
		}
		_, second := rec.timed(req, rttID, sh.name, "relational", "relational.dump_warm", func() { _, err = fx.poly.Relational.DumpBatch(fx.insertTable) })
		if err != nil {
			return err
		}
		ls.addDur("relational.colcache_rebuild_ms", si, first-second, time.Millisecond)
		return nil
	}
	explained := func() error {
		var xrel *engine.Relation
		_, ex := rec.timed(req, 0, sh.name, "server/client", "client.explain_rtt", func() { _, xrel, err = c.Explain(ctx, q) })
		if err != nil {
			return err
		}
		if err := want.check(xrel, sh.ordered); err != nil {
			return fmt.Errorf("%s: wrong answer under EXPLAIN: %w", q, err)
		}
		ls.addDur("client.explain_rtt_ms", si, ex, time.Millisecond)
		return nil
	}
	steps := []func() error{plain, explained}
	if round%2 == 1 {
		steps = []func() error{explained, plain}
	}
	for i, step := range steps {
		if i > 0 {
			next()
		}
		if err := step(); err != nil {
			return err
		}
	}

	// An empty request: socket, admission and goroutine hand-off alone.
	_, ping := rec.timed(req, 0, sh.name, "server", "server.ping", func() { err = c.Ping(ctx) })
	if err != nil {
		return err
	}
	ls.addDur("server.ping_ms", si, ping, time.Millisecond)

	// The same shape served from the unsharded copy.
	if direct != nil {
		_, drtt := rec.timed(req, 0, sh.name, "server/client", "client.direct_rtt", func() { _, err = direct.Query(ctx, q) })
		if err != nil {
			return err
		}
		ls.addDur("client.direct_rtt_ms", si, drtt, time.Millisecond)
	}

	// core: the same query in process under a trace root, with the
	// shard decorators capturing and the public counters bracketed.
	next()
	tctx, root := trace.New(ctx, "bench")
	if fx.capture != nil {
		fx.capture.begin()
	}
	c0 := readCounters(fx)
	qID, qd := rec.timed(req, 0, sh.name, "core", "core.query", func() { rel, err = fx.poly.QueryCtx(tctx, q) })
	root.End()
	c1 := readCounters(fx)
	var calls []shardCall
	if fx.capture != nil {
		calls = fx.capture.end()
	}
	if err != nil {
		return err
	}
	if err := want.check(rel, sh.ordered); err != nil {
		return fmt.Errorf("%s: wrong answer in process: %w", q, err)
	}
	rec.harvest(req, qID, sh.name, root)
	ls.addDur("core.query_ms", si, qd, time.Millisecond)
	if qs := root.Find("query"); qs != nil {
		self := qs.Duration()
		for _, child := range qs.Children() {
			self -= child.Duration()
		}
		ls.addDur("core.self_ms", si, self, time.Millisecond)
		for _, stage := range []string{"parse", "plan", "execute"} {
			if sp := qs.Find(stage); sp != nil {
				ls.addDur("core."+stage+"_ms", si, sp.Duration(), time.Millisecond)
			}
		}
		if casts := qs.FindAll("cast"); len(casts) > 0 {
			var sum time.Duration
			for _, sp := range casts {
				sum += sp.Duration()
			}
			ls.addDur("core.cast_ms", si, sum, time.Millisecond)
		}
	}
	if n := (c1.castPushed - c0.castPushed) + (c1.castFull - c0.castFull); n > 0 {
		ls.add("core.cast.wire_bytes_per_query", si, float64(c1.castBytes-c0.castBytes))
		ls.add("core.cast.rows_scanned_per_query", si, float64(c1.castScanned-c0.castScanned))
		ls.add("core.cast.rows_moved_per_query", si, float64(c1.castMoved-c0.castMoved))
		ls.add("casts", si, float64(n))
		ls.add("casts_pushed", si, float64(c1.castPushed-c0.castPushed))
	}
	ls.add("core.cast.retries", si, float64(c1.castRetries-c0.castRetries))
	ls.add("core.cast.rollbacks", si, float64(c1.castRollbacks-c0.castRollbacks))
	ls.add("relational.rows_scanned_per_query", si, float64(c1.relScanned-c0.relScanned))

	// relational: the body straight on the engine, for shapes whose
	// body is plain SQL over relational tables. The timed run and the
	// run that counts allocation are separate: reading the allocation
	// counters stops the world and would slow the run it brackets.
	island, body := scopeBody(q)
	if (island == "POSTGRES" || island == "RELATIONAL") && !sh.insert && !strings.Contains(body, "CAST(") {
		_, pd := rec.timed(req, qID, sh.name, "relational", "relational.parse", func() { _, err = relational.Parse(body) })
		if err != nil {
			return err
		}
		ls.addDur("relational.parse_us", si, pd, time.Microsecond)
		db := fx.oracle.Relational
		_, ed := rec.timed(req, qID, sh.name, "relational", "relational.exec", func() { _, err = db.Query(body) })
		if err != nil {
			return err
		}
		ls.addDur("relational.exec_ms", si, ed, time.Millisecond)
		before := totalAlloc()
		if _, err := db.Query(body); err != nil {
			return err
		}
		ls.add("relational.alloc_kb_per_exec", si, float64(totalAlloc()-before)/1024)
	}

	// core/scatter: what the decorators saw of the fan-out.
	var parts []*engine.Relation
	if len(calls) > 0 {
		ls.add("scatters", si, float64(c1.scatterCount-c0.scatterCount))
		ls.add("scatters_pushed", si, float64(c1.scatterPushed-c0.scatterPushed))
		var sum, slowest time.Duration
		var rows, wire int
		var children []interval
		for _, call := range calls {
			dur := call.end.Sub(call.start)
			sum += dur
			if dur > slowest {
				slowest = dur
			}
			rows += call.rel.Len()
			var buf bytes.Buffer
			if err := server.WriteRelation(&buf, call.rel); err != nil {
				return err
			}
			wire += buf.Len()
			parts = append(parts, call.rel)
			iv := interval{int64(call.start.Sub(rec.t0)), int64(call.end.Sub(rec.t0))}
			children = append(children, iv)
			rec.add(span{Parent: qID, Request: req, Shape: sh.name, Layer: "core/scatter",
				Name: fmt.Sprintf("shard.call[%d]", call.shard), StartNS: iv.start, EndNS: iv.end, DurNS: int64(dur)})
		}
		// The coordinator's own time is the query span minus the union of
		// the shard calls under it; the fan-out is that union.
		coordSelf := time.Duration(selfTime(rec.interval(qID), children))
		ls.addDur("core.scatter.fanout_ms", si, qd-coordSelf, time.Millisecond)
		ls.addDur("core.scatter.shard_call_ms", si, sum/time.Duration(len(calls)), time.Millisecond)
		ls.addDur("core.scatter.slowest_shard_ms", si, slowest, time.Millisecond)
		ls.addDur("core.scatter.coord_self_ms", si, coordSelf, time.Millisecond)
		ls.add("core.scatter.shard_rows_per_query", si, float64(rows))
		ls.add("core.scatter.shard_bytes_per_query", si, float64(wire))
		if sh.mergeOps != nil {
			_, md := rec.timed(req, qID, sh.name, "shard", "shard.merge_agg", func() { _, err = shard.MergeAggregate(parts, sh.mergeKeys, sh.mergeOps) })
			ls.addDur("shard.merge_agg_ms", si, md, time.Millisecond)
		} else {
			_, gd := rec.timed(req, qID, sh.name, "shard", "shard.gather", func() { _, err = shard.Gather(parts) })
			ls.addDur("shard.gather_ms", si, gd, time.Millisecond)
		}
		if err != nil {
			return err
		}
	}

	// server and client codecs, replayed on this request's own bytes.
	var wireReq, wireResp bytes.Buffer
	_, rc := rec.timed(req, rttID, sh.name, "server", "server.request_codec", func() {
		if err = server.WriteRequest(&wireReq, server.Request{Op: server.OpQuery, Deadline: 30 * time.Second, Text: q}); err == nil {
			_, err = server.ReadRequest(&wireReq)
		}
	})
	if err != nil {
		return err
	}
	ls.addDur("server.request_codec_us", si, rc, time.Microsecond)
	_, re := rec.timed(req, rttID, sh.name, "server", "server.response_encode", func() { err = server.WriteRelation(&wireResp, rel) })
	if err != nil {
		return err
	}
	ls.addDur("server.response_encode_ms", si, re, time.Millisecond)
	ls.add("server.response_bytes_per_query", si, float64(wireResp.Len()))
	_, cd := rec.timed(req, rttID, sh.name, "server/client", "client.decode", func() {
		_, err = server.ReadResponse(bufio.NewReader(bytes.NewReader(wireResp.Bytes())))
	})
	if err != nil {
		return err
	}
	ls.addDur("client.decode_ms", si, cd, time.Millisecond)
	// What of this request's round trip none of the above accounts for:
	// socket, admission and goroutine hand-off.
	ls.addDur("server.residual_ms", si, rtt-qd-rc-re-cd, time.Millisecond)

	// engine: the codec and the representation round trip on the
	// payload that crossed a wire inside this query — the CAST's moved
	// relation, the shard partials, or else the response.
	payload := []*engine.Relation{rel}
	if sh.moved != nil {
		payload = []*engine.Relation{sh.moved}
	} else if len(parts) > 0 {
		payload = parts
	}
	var enc, dec, toRel, fromRel time.Duration
	var encBytes int
	for _, pr := range payload {
		var buf bytes.Buffer
		_, d := rec.timed(req, qID, sh.name, "engine", "engine.encode", func() { err = pr.WriteBinary(&buf) })
		if err != nil {
			return err
		}
		enc += d
		encBytes += buf.Len()
		_, d = rec.timed(req, qID, sh.name, "engine", "engine.decode", func() { _, err = engine.ReadBinary(&buf) })
		if err != nil {
			return err
		}
		dec += d
		var cb *engine.ColumnBatch
		_, d = rec.timed(req, qID, sh.name, "engine", "engine.from_relation", func() { cb = engine.BatchFromRelation(pr) })
		fromRel += d
		_, d = rec.timed(req, qID, sh.name, "engine", "engine.to_relation", func() { _ = cb.ToRelation() })
		toRel += d
	}
	ls.addDur("engine.encode_ms", si, enc, time.Millisecond)
	ls.addDur("engine.decode_ms", si, dec, time.Millisecond)
	ls.addDur("engine.from_relation_ms", si, fromRel, time.Millisecond)
	ls.addDur("engine.to_relation_ms", si, toRel, time.Millisecond)
	ls.add("engine.encode_bytes", si, float64(encBytes))
	return nil
}

// layerMetrics turns the traced pass's samples into the per-layer
// metrics, by name.
func layerMetrics(ls *layerSamples) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{
		"client.rtt_ms", "client.decode_ms",
		"server.request_codec_us", "server.response_encode_ms", "server.response_bytes_per_query", "server.ping_ms",
		"server.residual_ms",
		"core.query_ms", "core.parse_ms", "core.plan_ms", "core.execute_ms", "core.self_ms", "core.cast_ms",
		"core.cast.wire_bytes_per_query", "core.cast.rows_scanned_per_query", "core.cast.rows_moved_per_query",
		"core.cast.retries", "core.cast.rollbacks",
		"core.scatter.fanout_ms", "core.scatter.shard_call_ms", "core.scatter.slowest_shard_ms", "core.scatter.coord_self_ms",
		"core.scatter.shard_rows_per_query", "core.scatter.shard_bytes_per_query",
		"relational.parse_us", "relational.exec_ms", "relational.rows_scanned_per_query", "relational.alloc_kb_per_exec",
		"relational.colcache_rebuild_ms",
		"engine.encode_ms", "engine.decode_ms", "engine.to_relation_ms", "engine.from_relation_ms",
		"shard.gather_ms", "shard.merge_agg_ms",
	} {
		m[name] = ls.weighted(name)
	}
	// Cast and scatter counts that are truly zero on a workload (no
	// CAST, no shards) read 0, not missing: the counter was read.
	for _, name := range []string{"core.cast_ms", "core.cast.wire_bytes_per_query", "core.cast.rows_scanned_per_query",
		"core.cast.rows_moved_per_query", "relational.colcache_rebuild_ms"} {
		if m[name] == missing {
			m[name] = 0
		}
	}
	// The budget: the medians of the parts against the median of the
	// whole. server.residual_ms is itself a difference, taken request by
	// request, so what is left here is how far medians are from adding.
	rtt := m["client.rtt_ms"]
	m["budget.residual_ratio"] = (rtt - m["core.query_ms"] - m["server.request_codec_us"]/1000 -
		m["server.response_encode_ms"] - m["client.decode_ms"] - m["server.residual_ms"]) / rtt
	m["trace.overhead_ratio"] = ls.ratio("client.explain_rtt_ms", "client.rtt_ms")
	m["core.cast.pushed_ratio"] = ls.ratio("casts_pushed", "casts")
	m["core.scatter.pushdown_ratio"] = ls.ratio("scatters_pushed", "scatters")
	m["core.scatter.skew_ratio"] = ls.ratio("core.scatter.slowest_shard_ms", "core.scatter.shard_call_ms")
	m["core.scatter.overhead_ratio"] = ls.ratio("client.rtt_ms", "client.direct_rtt_ms")
	m["relational.rows_scanned_per_result_row"] = ls.ratio("relational.rows_scanned_per_query", "result_rows")
	m["engine.encode_mb_s"] = missing
	if ms := m["engine.encode_ms"]; ms > 0 {
		m["engine.encode_mb_s"] = ls.weighted("engine.encode_bytes") / (1 << 20) / (ms / 1000)
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = missing
		}
	}
	return m
}

// shapeTable is the per-shape view of the budget, for the span file's
// reader and the README: each shape's median of every sampled metric.
func shapeTable(ls *layerSamples) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for si, sh := range ls.fx.shapes {
		row := map[string]float64{}
		for metric := range ls.by {
			if v, ok := ls.shapeMedian(metric, si); ok {
				row[metric] = v
			}
		}
		out[sh.name] = row
	}
	return out
}
