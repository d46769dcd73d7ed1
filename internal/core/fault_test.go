package core

// Directed fault-tolerance tests: cancellation of in-flight casts,
// pipe-goroutine lifecycle, atomic rollback at every failpoint, and
// the transient-fault retry loop. The randomized counterpart lives in
// chaos_test.go.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// waitGoroutines waits for the goroutine count to settle back to (or
// below) base+slack, failing with a full stack dump if it does not
// within two seconds — the leak detector for pipe goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d at start, %d after settle\n%s",
		base, runtime.NumGoroutine(), buf[:n])
}

// bigStore builds a polystore holding one registered 100k-row table.
func bigStore(t *testing.T, rows int) *Polystore {
	t.Helper()
	p := New()
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("id", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	rel.Tuples = make([]engine.Tuple, rows)
	for i := range rel.Tuples {
		rel.Tuples[i] = engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(float64(i) / 3)}
	}
	if err := p.Load(EnginePostgres, "big", rel, CastOptions{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCastCancellation proves cancelling an in-flight 100k-row cast
// returns promptly (well within the acceptance window), surfaces the
// context's error, leaves no goroutine behind and no partial state.
func TestCastCancellation(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	base := runtime.NumGoroutine()
	p := bigStore(t, 100_000)
	before := snapshotPolystore(t, p)

	// Slow the encoder to ~5ms per wire frame so the deadline lands
	// mid-stream (a 100k-row cast spans ~25 frames).
	fault.Arm(fault.Spec{Point: engine.FpEncodeFrame, Mode: fault.ModeDelay,
		Delay: 5 * time.Millisecond, Times: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := p.CastCtx(ctx, "big", EnginePostgres, CastOptions{})
	elapsed := time.Since(start)
	fault.Reset()

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled cast returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled cast took %v to return — teardown is not prompt", elapsed)
	}
	if after := snapshotPolystore(t, p); after != before {
		t.Fatalf("cancelled cast changed polystore state\nbefore:\n%s\nafter:\n%s", before, after)
	}
	waitGoroutines(t, base)
}

// TestPipeGoroutineLifecycle loops decode-error and cancellation casts
// and asserts every encoder/decoder goroutine exits — the pipe leak
// test of the issue's first satellite.
func TestPipeGoroutineLifecycle(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	base := runtime.NumGoroutine()
	p := bigStore(t, 60_000) // over parallelCastRows: the parallel decoder runs too

	t.Run("mid-stream decode errors", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			fault.Reset()
			fault.Arm(fault.Spec{Point: engine.FpDecodeFrame, Mode: fault.ModeError, After: 1})
			if _, err := p.Cast("big", EnginePostgres, CastOptions{}); err == nil {
				t.Fatal("cast with injected decode error succeeded")
			}
		}
		fault.Reset()
		waitGoroutines(t, base)
	})
	t.Run("cancellation mid-encode", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			fault.Reset()
			fault.Arm(fault.Spec{Point: engine.FpEncodeFrame, Mode: fault.ModeDelay,
				Delay: 2 * time.Millisecond, Times: -1})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			if _, err := p.CastCtx(ctx, "big", EnginePostgres, CastOptions{}); err == nil {
				t.Fatal("cancelled cast succeeded")
			}
			cancel()
		}
		fault.Reset()
		waitGoroutines(t, base)
	})
}

// TestCastAtomicRollback injects a permanent fault at every pipeline
// failpoint, for every target engine shape, and asserts the cast fails
// with the injected fault in its chain while the catalog and all
// engines stay byte-identical — no staged or half-loaded leftovers.
// The source is a Postgres table, so the Postgres target is the
// relation→relation cast on the columnar ingest production runs. A
// fault from the load on costs exactly one rollback, an earlier one
// none, and the relational engine's table list is as it was.
func TestCastAtomicRollback(t *testing.T) {
	defer fault.Reset()
	staged := map[string]bool{FpCastLoad: true, FpCastLoadMid: true, FpCastCommit: true}
	for _, target := range []EngineKind{EnginePostgres, EngineSciDB, EngineAccumulo} {
		for _, point := range CastFailpoints() {
			t.Run(fmt.Sprintf("%s/%s", target, point), func(t *testing.T) {
				fault.Reset()
				p := demoStore(t)
				before := snapshotPolystore(t, p)
				tables := p.Relational.Tables()
				sort.Strings(tables)
				rollbacks := p.om.castRollbacks.Load()
				fault.Arm(fault.Spec{Point: point, Mode: fault.ModeError, Times: -1})
				_, err := p.Cast("patients", target, CastOptions{})
				fault.Reset()
				if err == nil {
					t.Fatalf("cast to %s with %s armed succeeded", target, point)
				}
				var fe *fault.Error
				if !errors.As(err, &fe) {
					t.Fatalf("cast error does not chain the injected fault: %v", err)
				}
				if after := snapshotPolystore(t, p); after != before {
					t.Fatalf("failed cast changed polystore state\nbefore:\n%s\nafter:\n%s", before, after)
				}
				want := int64(0)
				if staged[point] {
					want = 1
				}
				if got := p.om.castRollbacks.Load() - rollbacks; got != want {
					t.Errorf("cast.rollbacks moved by %d, want %d", got, want)
				}
				after := p.Relational.Tables()
				sort.Strings(after)
				if strings.Join(after, ",") != strings.Join(tables, ",") {
					t.Errorf("Relational.Tables() = %v, want %v", after, tables)
				}
			})
		}
	}
}

// wireHeaderLen computes the v2 stream header length for a schema —
// magic, column count, per-column descriptors, declared tuple count —
// so partial-write specs can truncate exactly at the first frame
// header.
func wireHeaderLen(s engine.Schema) int {
	n := 8
	for _, c := range s.Columns {
		n += 3 + len(c.Name)
	}
	return n + 8
}

// TestCastPartialWriteRollback truncates the wire stream exactly at
// (and just inside) the first frame header — the shape a crashed
// writer leaves — and asserts a clean chained error with full
// rollback, no panic.
func TestCastPartialWriteRollback(t *testing.T) {
	defer fault.Reset()
	p := demoStore(t)
	rel, err := p.Dump("patients")
	if err != nil {
		t.Fatal(err)
	}
	hdr := wireHeaderLen(rel.Schema)
	for _, cut := range []int{hdr, hdr + 4, hdr + 8} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			fault.Reset()
			before := snapshotPolystore(t, p)
			fault.Arm(fault.Spec{Point: FpCastPipe, Mode: fault.ModePartialWrite,
				After: cut, Times: -1})
			_, err := p.Cast("patients", EnginePostgres, CastOptions{})
			fault.Reset()
			if err == nil {
				t.Fatal("cast over a truncated pipe succeeded")
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("truncation error does not chain the injected fault: %v", err)
			}
			if after := snapshotPolystore(t, p); after != before {
				t.Fatalf("truncated cast changed polystore state\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}

// TestCastRetryTransient arms a one-shot transient fault and asserts
// the retry loop absorbs it: the cast succeeds on the second attempt,
// reports exactly one retry, and lands a copy identical to the source.
func TestCastRetryTransient(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	p := demoStore(t)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	fault.Arm(fault.Spec{Point: engine.FpEncodeFrame, Mode: fault.ModeError, Transient: true})

	res, err := p.Cast("patients", EnginePostgres, CastOptions{})
	fault.Reset()
	if err != nil {
		t.Fatalf("transient fault not absorbed by retry: %v", err)
	}
	defer p.dropTempObjects([]string{res.Target})
	if res.Retries != 1 {
		t.Errorf("CastResult.Retries = %d, want 1", res.Retries)
	}
	if got := p.RetryStats(); got != 1 {
		t.Errorf("RetryStats = %d, want 1", got)
	}
	src, _ := p.Dump("patients")
	copied, err := p.Dump(res.Target)
	if err != nil {
		t.Fatalf("dump retried copy: %v", err)
	}
	if canonRelation(src) != canonRelation(copied) {
		t.Error("retried cast landed a copy that differs from the source")
	}
}

// TestCastRetryExhaustion arms a transient fault that outlives the
// retry budget and asserts the cast fails cleanly after spending it.
func TestCastRetryExhaustion(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	p := demoStore(t)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	before := snapshotPolystore(t, p)
	fault.Arm(fault.Spec{Point: FpCastLoad, Mode: fault.ModeError, Transient: true, Times: -1})
	res, err := p.Cast("patients", EnginePostgres, CastOptions{})
	fault.Reset()
	if err == nil {
		t.Fatal("cast under a persistent fault succeeded")
	}
	if !IsTransientError(err) {
		t.Errorf("exhausted retry should surface the transient fault, got %v", err)
	}
	if res.Retries != 1 {
		t.Errorf("CastResult.Retries = %d, want 1 (MaxAttempts 2)", res.Retries)
	}
	if after := snapshotPolystore(t, p); after != before {
		t.Fatalf("exhausted cast changed polystore state\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestZeroMatchRecastCountsRetry re-pins the planner's zero-match
// SciDB fallback (PR 5) now routed through the retry policy: the
// recast waits one backoff step and shows up in RetryStats.
func TestZeroMatchRecastCountsRetry(t *testing.T) {
	p := demoStore(t)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	rel, err := p.Query("ARRAY(filter(CAST(patients, array), age > 1000))")
	if err != nil {
		t.Fatalf("zero-match query must succeed via full-migration fallback: %v", err)
	}
	if rel.Len() != 0 {
		t.Errorf("zero-match filter returned %d rows, want 0", rel.Len())
	}
	if got := p.RetryStats(); got != 1 {
		t.Errorf("RetryStats = %d, want 1 (the fallback recast)", got)
	}
}
