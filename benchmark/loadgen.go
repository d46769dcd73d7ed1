package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server/client"
)

// clientCount is the number of connections, and of generator
// goroutines, in every load phase: no more than the cores, so the
// loops measure the program and not the run queue.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// worker is one connection with its own query generator.
type worker struct {
	fx  *fixture
	c   *client.Client
	rng *rand.Rand
	k   int // operations issued so far
}

func dialWorkers(fx *fixture, seed int64) ([]*worker, error) {
	ws := make([]*worker, clientCount())
	for i := range ws {
		c, err := client.Dial(fx.addr)
		if err != nil {
			closeWorkers(ws)
			return nil, err
		}
		// Each worker starts its round at a different shape, so the
		// clients do not run the expensive shape in lockstep.
		ws[i] = &worker{fx: fx, c: c, rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
			k: i * len(fx.mix) / len(ws)}
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		if w != nil && w.c != nil {
			_ = w.c.Close()
		}
	}
}

// opResult is one operation as the generator saw it.
type opResult struct {
	start   time.Time
	end     time.Time
	refused bool
	err     error
}

// do issues the worker's next operation and verifies the response.
// The clock stops when the response is decoded, before verification.
func (w *worker) do() opResult {
	si := w.fx.mix[w.k%len(w.fx.mix)]
	w.k++
	sh := w.fx.shapes[si]
	q, want := w.fx.query(sh, w.rng)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := opResult{start: time.Now()}
	rel, err := w.c.Query(ctx, q)
	res.end = time.Now()
	if err != nil {
		res.err = fmt.Errorf("%s: %s: %w", sh.name, q, err)
		res.refused = errors.Is(err, client.ErrOverloaded)
		var qe *client.QueryError
		if !errors.As(err, &qe) {
			// A transport failure breaks the connection for good.
			_ = w.c.Close()
			if c, derr := client.Dial(w.fx.addr); derr == nil {
				w.c = c
			}
		}
		return res
	}
	if err := want.check(rel, sh.ordered); err != nil {
		res.err = fmt.Errorf("%s: %s: wrong answer: %w", sh.name, q, err)
	}
	return res
}

// phase is what one load phase measured.
type phase struct {
	latMS     []float64 // verified answers only
	lateMS    []float64 // open loop: how late each request was sent
	attempted int
	failed    int // errors + wrong answers + refused + never sent
	refused   int
	elapsed   time.Duration
	cpu       time.Duration // process user+sys over the phase
	allocB    uint64        // TotalAlloc delta over the phase
	firstErrs []error
}

func (p *phase) correct() int { return len(p.latMS) }

func (p *phase) merge(o *phase) {
	p.latMS = append(p.latMS, o.latMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.refused += o.refused
	for _, e := range o.firstErrs {
		if len(p.firstErrs) < 5 {
			p.firstErrs = append(p.firstErrs, e)
		}
	}
}

func (p *phase) record(r opResult, from time.Time) {
	p.attempted++
	if r.err != nil {
		p.failed++
		if r.refused {
			p.refused++
		}
		if len(p.firstErrs) < 5 {
			p.firstErrs = append(p.firstErrs, r.err)
		}
		return
	}
	p.latMS = append(p.latMS, float64(r.end.Sub(from))/float64(time.Millisecond))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measured brackets a load phase with the process counters.
func measured(run func() *phase) *phase {
	cpu0, alloc0, t0 := cpuTime(), totalAlloc(), time.Now()
	p := run()
	p.elapsed = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.allocB = totalAlloc() - alloc0
	return p
}

// fanOut runs fn once per worker, each on its own goroutine with its
// own tally, waits for all of them and adds the tallies up.
func fanOut(ws []*worker, fn func(w *worker, p *phase)) *phase {
	parts := make([]phase, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(w *worker, p *phase) {
			defer wg.Done()
			fn(w, p)
		}(w, &parts[i])
	}
	wg.Wait()
	total := &phase{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// closedLoop runs every worker back to back for d: a worker sends its
// next request only when the previous one has completed.
func closedLoop(ws []*worker, d time.Duration) *phase {
	return measured(func() *phase {
		deadline := time.Now().Add(d)
		return fanOut(ws, func(w *worker, p *phase) {
			for time.Now().Before(deadline) {
				r := w.do()
				p.record(r, r.start)
			}
		})
	})
}

// openLoop offers rate requests per second for d on a fixed schedule,
// whatever the responses do: request i is due at start + i/rate, the
// workers take due requests in order, and each is timed from when it
// was due, so a stall charges every request that waited behind it.
// Requests still unsent a grace period after the window count as
// failed.
func openLoop(ws []*worker, rate float64, d time.Duration) *phase {
	return measured(func() *phase {
		n := int64(rate * d.Seconds())
		gap := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		giveUp := start.Add(d + 2*time.Second)
		var next atomic.Int64
		return fanOut(ws, func(w *worker, p *phase) {
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				due := start.Add(time.Duration(i) * gap)
				sleepUntil(due)
				if time.Now().After(giveUp) {
					p.attempted++
					p.failed++
					continue
				}
				r := w.do()
				p.lateMS = append(p.lateMS, float64(r.start.Sub(due))/float64(time.Millisecond))
				p.record(r, due)
			}
		})
	})
}

// sleepUntil blocks until t. It sleeps in the kernel, not on a Go
// timer: an idle Go runtime waits in epoll with a millisecond timeout,
// so time.Sleep wakes up to 1 ms late, which is several times the
// latency of a point query and would be charged to every request.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// heapSampler samples heap-in-use (live objects plus unused span
// space, the runtime's HeapInuse) every 20 ms, read through
// runtime/metrics so sampling never stops the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // bytes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			h.samples = append(h.samples, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()))
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the level the heap was at or
// under for 95% of the samples, in bytes. The single highest sample is
// where one GC cycle happened to end: over repeat runs of one commit it
// moved by a quarter, the 95th percentile by a twentieth.
func (h *heapSampler) peak() float64 {
	close(h.stop)
	<-h.done
	return percentile(sortedCopy(h.samples), 0.95)
}

// warm runs every pooled query of every read shape once over the
// worker's connection and verifies it, so the timed phases start with
// caches built and the served path already proven against the oracle.
func (w *worker) warm() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, sh := range w.fx.shapes {
		for i, q := range sh.queries {
			rel, err := w.c.Query(ctx, q)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", sh.name, q, err)
			}
			if err := sh.want[i].check(rel, sh.ordered); err != nil {
				return fmt.Errorf("%s: %s: wrong answer: %w", sh.name, q, err)
			}
		}
	}
	return nil
}
