package core

// Benchmarks for the cross-island CAST pushdown planner. The scenario
// is the acceptance case from the planner's design: a 6-column table,
// a ≤10% selective predicate, 2 referenced columns — pushdown should
// move ~5x+ fewer bytes and finish correspondingly faster than the
// migrate-everything baseline. wire_bytes/op is the custom metric that
// records CastResult.Bytes. Run with
// go test ./internal/core -run '^$' -bench . -benchmem.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// benchStore memoizes one polystore per table size across sub-benchmarks.
var benchStores = map[int]*Polystore{}

func pushdownStore(b *testing.B, rows int) *Polystore {
	b.Helper()
	if p, ok := benchStores[rows]; ok {
		return p
	}
	p := New()
	bigTable(b, p, "big", rows)
	benchStores[rows] = p
	return p
}

func BenchmarkCastPushdown(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, pushed := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/full", rows)
			opts := CastOptions{}
			if pushed {
				name = fmt.Sprintf("rows=%d/pushdown", rows)
				opts.Predicate, opts.Columns = "a < 10", []string{"a", "b"}
			}
			b.Run(name, func(b *testing.B) {
				p := pushdownStore(b, rows)
				var bytes int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Per-iteration closure so cleanup is deferred: the
					// temp target is dropped even if the iteration bails,
					// and the drop itself stays off the timer.
					func() {
						res, err := p.Cast("big", EnginePostgres, opts)
						if err != nil {
							b.Fatal(err)
						}
						bytes = res.Bytes
						b.StopTimer()
						defer b.StartTimer()
						defer p.dropTempObjects([]string{res.Target})
					}()
				}
				b.ReportMetric(float64(bytes), "wire_bytes/op")
			})
		}
	}
}

// BenchmarkQueryPushdown measures the end-to-end island query — parse,
// plan, migrate, execute, clean up — with the planner on vs off.
func BenchmarkQueryPushdown(b *testing.B) {
	const q = `RELATIONAL(SELECT a, b FROM CAST(big, relation) WHERE a < 10)`
	for _, rows := range []int{10_000, 100_000} {
		for _, pushed := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/planner=off", rows)
			if pushed {
				name = fmt.Sprintf("rows=%d/planner=on", rows)
			}
			b.Run(name, func(b *testing.B) {
				p := pushdownStore(b, rows)
				p.SetPushdown(pushed)
				defer p.SetPushdown(true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFaultHitDisarmed prices a failpoint call site when nothing
// is armed — the cost every production cast pays per Hit. It must stay
// at a single atomic load (~1ns), i.e. zero against cast latency;
// fault.TestFailpointsDisarmedZeroAlloc gates the allocation half.
func BenchmarkFaultHitDisarmed(b *testing.B) {
	fault.Reset()
	for i := 0; i < b.N; i++ {
		if err := fault.Hit(FpCastDump); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultWrapDisarmed prices the writer interposer when nothing
// is armed: Wrap must hand back the original writer, so the write is
// the whole cost.
func BenchmarkFaultWrapDisarmed(b *testing.B) {
	fault.Reset()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := fault.Wrap(FpCastPipe, io.Discard).Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultCastDisarmed runs the acceptance-scenario 10k-row full
// cast with the failpoint suite idle. Its ns/op is directly comparable
// to BenchmarkCastPushdown/rows=10000/full in the same run: the two
// must sit within run-to-run noise of each other, proving the
// injected failpoints cost nothing when disabled.
func BenchmarkFaultCastDisarmed(b *testing.B) {
	fault.Reset()
	p := pushdownStore(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		func() {
			res, err := p.Cast("big", EnginePostgres, CastOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			defer b.StartTimer()
			defer p.dropTempObjects([]string{res.Target})
		}()
	}
}

// BenchmarkObsCast prices the cast pipeline's instrumentation.
// trace=off runs on a plain context — the production default, where
// every trace.Start site is one context.Value miss and every span
// method a nil check — and must sit within run-to-run noise of
// BenchmarkFaultCastDisarmed. trace=on carries a live trace, pricing
// the full span tree.
func BenchmarkObsCast(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		if traced {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			p := pushdownStore(b, 10_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				func() {
					ctx := context.Background()
					var root *trace.Span
					if traced {
						ctx, root = trace.New(ctx, "bench")
					}
					res, err := p.CastCtx(ctx, "big", EnginePostgres, CastOptions{})
					root.End()
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					defer b.StartTimer()
					defer p.dropTempObjects([]string{res.Target})
				}()
			}
		})
	}
}

// BenchmarkObsQuery is the same pair for the end-to-end island query —
// parse, plan, pushdown cast, execute — pricing the instrumentation
// against the full QueryCtx path too.
func BenchmarkObsQuery(b *testing.B) {
	const q = `RELATIONAL(SELECT a, b FROM CAST(big, relation) WHERE a < 10)`
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		if traced {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			p := pushdownStore(b, 10_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				var root *trace.Span
				if traced {
					ctx, root = trace.New(ctx, "bench")
				}
				_, err := p.QueryCtx(ctx, q)
				root.End()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
