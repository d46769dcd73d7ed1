// Package fault implements named failpoints for fault-injection
// testing across the polystore: the cast pipeline, the wire codec and
// the island load paths register injection points by name, and tests
// arm them with deterministic schedules of errors, delays and partial
// writes. Production code pays one atomic load per point when nothing
// is armed — the package is zero-cost unless a test turns it on.
//
// A failpoint is evaluated either as a call site (Hit) or as an
// io.Writer interposer (Wrap). Armed specs trigger after a configured
// number of hits (bytes, for partial writes) and for a configured
// number of occurrences, so a schedule can say "the third frame write
// fails, once" and a retry that re-runs the pipeline succeeds.
package fault

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed failpoint does when it triggers.
type Mode int

// Failure modes.
const (
	// ModeError makes the point return an injected *Error.
	ModeError Mode = iota
	// ModeDelay makes the point sleep for Spec.Delay, then proceed.
	ModeDelay
	// ModePartialWrite applies to Wrap'd writers: the first Spec.After
	// bytes pass through, then the write fails mid-buffer — the
	// truncated-stream shape a crashed peer or full disk produces.
	ModePartialWrite
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeDelay:
		return "delay"
	case ModePartialWrite:
		return "partial-write"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Error is an injected failure. It flows through the code under test
// like any other error; retry policies recognise the Transient flag via
// the IsTransient method.
type Error struct {
	Point     string
	Transient bool
}

func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s failure at %s", kind, e.Point)
}

// IsTransient classifies the injected failure for retry policies.
func (e *Error) IsTransient() bool { return e.Transient }

// Spec arms one failpoint.
type Spec struct {
	Point string
	Mode  Mode
	// After is how many hits pass untouched before the spec triggers
	// (for ModePartialWrite: how many bytes pass through).
	After int
	// Times is how many triggers fire before the point goes quiet
	// (0 means once; negative means every hit). A transient spec with
	// Times below the retry budget models a fault a retry outlives.
	Times     int
	Transient bool
	Delay     time.Duration
}

type point struct {
	spec  Spec
	hits  int // Hit count, or bytes seen for ModePartialWrite
	fired int
}

func (pt *point) limit() int {
	if pt.spec.Times == 0 {
		return 1
	}
	return pt.spec.Times
}

var (
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*point{}
)

// Arm installs (or replaces) the spec for its point.
func Arm(spec Spec) {
	mu.Lock()
	if _, ok := points[spec.Point]; !ok {
		armed.Add(1)
	}
	points[spec.Point] = &point{spec: spec}
	mu.Unlock()
}

// Disarm removes one point's spec.
func Disarm(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Hit evaluates the named failpoint at a call site. When nothing is
// armed it costs one atomic load and returns nil.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	delay, err := evalHit(name)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

func evalHit(name string) (time.Duration, error) {
	mu.Lock()
	defer mu.Unlock()
	pt, ok := points[name]
	if !ok || pt.spec.Mode == ModePartialWrite {
		return 0, nil
	}
	pt.hits++
	if pt.hits <= pt.spec.After || (pt.spec.Times >= 0 && pt.fired >= pt.limit()) {
		return 0, nil
	}
	pt.fired++
	if pt.spec.Mode == ModeDelay {
		return pt.spec.Delay, nil
	}
	return 0, &Error{Point: name, Transient: pt.spec.Transient}
}

// Wrap interposes the named failpoint on a writer: ModePartialWrite
// specs let Spec.After bytes through and then fail mid-buffer, and
// ModeError/ModeDelay specs treat each Write call as a hit. Returns w
// unchanged when nothing at all is armed.
func Wrap(name string, w io.Writer) io.Writer {
	if armed.Load() == 0 {
		return w
	}
	return &faultWriter{name: name, w: w}
}

type faultWriter struct {
	name string
	w    io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	allow, delay, err := evalWrite(fw.name, len(p))
	if delay > 0 {
		time.Sleep(delay)
	}
	if err == nil {
		return fw.w.Write(p)
	}
	n := 0
	if allow > 0 {
		var werr error
		n, werr = fw.w.Write(p[:allow])
		if werr != nil {
			return n, werr
		}
	}
	return n, err
}

func evalWrite(name string, nbytes int) (allow int, delay time.Duration, err error) {
	mu.Lock()
	defer mu.Unlock()
	pt, ok := points[name]
	if !ok {
		return nbytes, 0, nil
	}
	switch pt.spec.Mode {
	case ModePartialWrite:
		if pt.spec.Times >= 0 && pt.fired >= pt.limit() {
			return nbytes, 0, nil
		}
		before := pt.hits
		pt.hits += nbytes
		if pt.hits <= pt.spec.After {
			return nbytes, 0, nil
		}
		pt.fired++
		allow = pt.spec.After - before
		if allow < 0 {
			allow = 0
		}
		return allow, 0, &Error{Point: name, Transient: pt.spec.Transient}
	case ModeError, ModeDelay:
		pt.hits++
		if pt.hits <= pt.spec.After || (pt.spec.Times >= 0 && pt.fired >= pt.limit()) {
			return nbytes, 0, nil
		}
		pt.fired++
		if pt.spec.Mode == ModeDelay {
			return nbytes, pt.spec.Delay, nil
		}
		return 0, 0, &Error{Point: name, Transient: pt.spec.Transient}
	default:
		return nbytes, 0, nil
	}
}

// Fired reports how many times the named point has triggered since it
// was armed — tests assert a schedule actually exercised its faults.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if pt, ok := points[name]; ok {
		return pt.fired
	}
	return 0
}

// Schedule derives a deterministic fault schedule from a seed: one to
// three specs over the given call-site points (hit) and writer points
// (write), with randomized trigger offsets, occurrence counts and
// transient classification. The same seed always produces the same
// schedule, so a failing chaos run reproduces exactly.
func Schedule(seed int64, hit, write []string) []Spec {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(3)
	if m := len(hit) + len(write); n > m {
		n = m
	}
	specs := make([]Spec, 0, n)
	used := map[string]bool{}
	for len(specs) < n {
		var sp Spec
		if len(write) > 0 && rng.Intn(4) == 0 {
			sp.Point = write[rng.Intn(len(write))]
			sp.Mode = ModePartialWrite
			sp.After = rng.Intn(8 << 10) // truncate within the first frames
		} else if len(hit) > 0 {
			sp.Point = hit[rng.Intn(len(hit))]
			sp.After = rng.Intn(3)
			if rng.Intn(5) == 0 {
				sp.Mode = ModeDelay
				sp.Delay = time.Duration(rng.Intn(2500)) * time.Microsecond
			} else {
				sp.Mode = ModeError
			}
		} else {
			continue
		}
		if used[sp.Point] {
			continue
		}
		used[sp.Point] = true
		sp.Transient = rng.Intn(2) == 0
		sp.Times = 1
		if rng.Intn(4) == 0 {
			sp.Times = 1 + rng.Intn(2)
		}
		specs = append(specs, sp)
	}
	return specs
}
