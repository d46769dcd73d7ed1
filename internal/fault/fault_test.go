package fault

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit("nothing.armed"); err != nil {
		t.Fatalf("disarmed hit errored: %v", err)
	}
	if n := armed.Load(); n != 0 {
		t.Fatalf("armed count %d with nothing armed", n)
	}
}

func TestErrorModeAfterAndTimes(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Spec{Point: "p", Mode: ModeError, After: 2, Times: 2, Transient: true})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, Hit("p") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trigger pattern %v, want %v", got, want)
	}
	if Fired("p") != 2 {
		t.Fatalf("Fired = %d, want 2", Fired("p"))
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Spec{Point: "t", Mode: ModeError, Transient: true})
	err := Hit("t")
	var fe *Error
	if !errors.As(err, &fe) || !fe.IsTransient() {
		t.Fatalf("want transient injected error, got %v", err)
	}
	Arm(Spec{Point: "q", Mode: ModeError})
	err = Hit("q")
	if !errors.As(err, &fe) || fe.IsTransient() {
		t.Fatalf("want permanent injected error, got %v", err)
	}
}

func TestDelayMode(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Spec{Point: "d", Mode: ModeDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Hit("d"); err != nil {
		t.Fatalf("delay hit errored: %v", err)
	}
	if e := time.Since(start); e < 15*time.Millisecond {
		t.Fatalf("delay hit returned after %v, want ≥ 20ms", e)
	}
}

func TestPartialWriteTruncatesAtOffset(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Spec{Point: "w", Mode: ModePartialWrite, After: 10})
	var sink bytes.Buffer
	w := Wrap("w", &sink)
	n, err := w.Write(make([]byte, 6)) // bytes 0..5 pass
	if n != 6 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err = w.Write(make([]byte, 6)) // bytes 6..9 pass, then fail
	if n != 4 {
		t.Fatalf("partial write allowed %d bytes, want 4", n)
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("want injected error, got %v", err)
	}
	if sink.Len() != 10 {
		t.Fatalf("sink got %d bytes, want exactly 10", sink.Len())
	}
	// Times defaulted to 1: the next attempt passes (a retry outlives it).
	n, err = w.Write(make([]byte, 6))
	if n != 6 || err != nil {
		t.Fatalf("post-trigger write: n=%d err=%v", n, err)
	}
}

// TestFailpointsDisarmedZeroAlloc pins "failpoints are free when
// nothing is armed": Hit and a write through Wrap allocate nothing, and
// Wrap hands back the very writer it was given. Arming an unrelated
// point makes other names take the slow path, which must still be nil.
func TestFailpointsDisarmedZeroAlloc(t *testing.T) {
	defer Reset()
	Reset()
	if n := testing.AllocsPerRun(1000, func() {
		if err := Hit("idle.point"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disarmed Hit: %v allocs/op, want 0", n)
	}
	if w := Wrap("idle.write", io.Discard); w != io.Discard {
		t.Fatal("Wrap should return the writer unchanged when nothing is armed")
	}
	buf := make([]byte, 512)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := Wrap("idle.write", io.Discard).Write(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disarmed Wrap+Write: %v allocs/op, want 0", n)
	}
	Arm(Spec{Point: "elsewhere", Mode: ModeError})
	if err := Hit("idle.point"); err != nil {
		t.Fatalf("Hit on an unarmed name with another point armed: %v", err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	hit := []string{"a", "b", "c"}
	write := []string{"w"}
	s1 := Schedule(42, hit, write)
	s2 := Schedule(42, hit, write)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", s1, s2)
	}
	if len(s1) == 0 {
		t.Fatal("empty schedule")
	}
	seen := map[string]bool{}
	for _, sp := range s1 {
		if seen[sp.Point] {
			t.Fatalf("duplicate point %q in schedule", sp.Point)
		}
		seen[sp.Point] = true
	}
	// Different seeds should (for some seed) differ.
	diff := false
	for seed := int64(0); seed < 20; seed++ {
		if !reflect.DeepEqual(Schedule(seed, hit, write), s1) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("20 seeds all produced the identical schedule")
	}
}

func BenchmarkHitDisarmed(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Hit("bench.point"); err != nil {
			b.Fatal(err)
		}
	}
}
