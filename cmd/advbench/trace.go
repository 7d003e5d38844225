package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one frame or one request share an id; parent indexes the span
// that caused this one (-1 for a root).
type span struct {
	name       string
	id         int64
	parent     int
	start, end time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: serve spans arrive from client, handler and worker
// goroutines at once.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, id int64, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: now, end: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begun under handle i and returns its duration in
// milliseconds.
func (t *tracer) end(i int) float64 {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	d := now - t.spans[i].start
	t.mu.Unlock()
	return d.Seconds() * 1e3
}

// mark returns the handle the next span will get.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns, in milliseconds, the durations of the closed spans
// named name from handle from on.
func (t *tracer) durations(from int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.name == name && s.end >= s.start {
			out = append(out, (s.end-s.start).Seconds()*1e3)
		}
	}
	return out
}

// layerTime is the accumulated time of every span with one name.
type layerTime struct {
	calls int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus the time children cover
}

// layers folds the closed spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it, so
// children that overlap one another (parallel cells under one run) are
// not subtracted twice.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.end < s.start {
			continue // still open: the run ended inside it
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		dur := s.end - s.start
		lt.calls++
		lt.total += dur
		lt.self += dur - covered(spans, children[i], s.start, s.end)
	}
	return out
}

// covered returns how much of [lo, hi) the given spans cover together.
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, j := range idx {
		a, b := max(spans[j].start, lo), min(spans[j].end, hi)
		if spans[j].end >= spans[j].start && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var sum time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case v.a > cur.b:
			sum += cur.b - cur.a
			cur = v
		case v.b > cur.b:
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b - cur.a
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds, one row per frame or request id), loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.id,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"span": i, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
