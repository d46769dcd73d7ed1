package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// span is one timed region the benchmark recorded around a public
// call, or one it harvested from the program's own internal/trace tree
// (those carry a duration but no start: the tree does not expose one).
// Spans of one request share its id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root of its request
	Request int    `json:"request"`
	Shape   string `json:"shape"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began; -1 = harvested, unknown
	EndNS   int64  `json:"end_ns"`   // -1 = harvested
	DurNS   int64  `json:"dur_ns"`
}

// recorder keeps the traced pass's spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// timed runs fn inside a recorded span and returns the span's id and
// duration.
func (r *recorder) timed(req, parent int, shape, layer, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	id := r.add(span{Parent: parent, Request: req, Shape: shape, Layer: layer, Name: name,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0)), DurNS: int64(end.Sub(start))})
	return id, end.Sub(start)
}

// interval is the time range of a recorded span.
func (r *recorder) interval(id int) interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	return interval{s.StartNS, s.EndNS}
}

// harvest copies an internal/trace subtree under a recorded span.
func (r *recorder) harvest(req, parent int, shape string, sp *trace.Span) {
	for _, child := range sp.Children() {
		id := r.add(span{Parent: parent, Request: req, Shape: shape, Layer: "core", Name: "trace:" + child.Name(),
			StartNS: -1, EndNS: -1, DurNS: int64(child.Duration())})
		r.harvest(req, id, shape, child)
	}
}

// traceFile is the span file of one workload.
type traceFile struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	PerShape map[string]map[string]float64 `json:"per_shape_medians"`
	Slowest  map[string]string             `json:"slowest_request_by_shape"`
	Spans    []span                        `json:"spans"`
}

// write stores the spans, with each shape's median of every sampled
// metric and the slowest request of each shape rendered as an indented
// tree.
func (r *recorder) write(path, workload string, seed int64, perShape map[string]map[string]float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, PerShape: perShape, Slowest: map[string]string{}, Spans: r.spans}
	slowest := map[string]span{}
	for _, s := range r.spans {
		if s.Parent == 0 && s.Name == "client.rtt" && s.DurNS > slowest[s.Shape].DurNS {
			slowest[s.Shape] = s
		}
	}
	for shape, root := range slowest {
		tf.Slowest[shape] = r.render(root.Request)
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// render draws one request's spans as text. The caller holds r.mu.
func (r *recorder) render(req int) string {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Request == req {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var sb strings.Builder
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range kids[parent] {
			fmt.Fprintf(&sb, "%s%-*s %10.3f ms  [%s]\n", strings.Repeat("  ", depth), 34-2*depth, s.Name,
				float64(s.DurNS)/1e6, s.Layer)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}

// shardCall is one coordinator→shard round trip a decorator saw.
type shardCall struct {
	shard      int
	start, end time.Time
	rel        *engine.Relation
}

// capture collects the shard calls of one coordinator query. It is off
// outside the traced pass, where the decorators only forward.
type capture struct {
	mu    sync.Mutex
	on    bool
	calls []shardCall
}

func (c *capture) begin() {
	c.mu.Lock()
	c.on, c.calls = true, nil
	c.mu.Unlock()
}

// end stops capturing and returns the calls in shard order.
func (c *capture) end() []shardCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = false
	calls := c.calls
	c.calls = nil
	sort.Slice(calls, func(i, j int) bool { return calls[i].shard < calls[j].shard })
	return calls
}

// timedEndpoint is the timing decorator around one core.ShardEndpoint.
type timedEndpoint struct {
	inner   core.ShardEndpoint
	shard   int
	capture *capture
}

func (e *timedEndpoint) Query(ctx context.Context, q string) (*engine.Relation, error) {
	start := time.Now()
	rel, err := e.inner.Query(ctx, q)
	end := time.Now()
	e.capture.mu.Lock()
	if e.capture.on && err == nil {
		e.capture.calls = append(e.capture.calls, shardCall{shard: e.shard, start: start, end: end, rel: rel})
	}
	e.capture.mu.Unlock()
	return rel, err
}
