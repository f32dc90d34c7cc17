package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one op share its op id; parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced rounds pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span runs fn inside a span.
func (t *tracer) span(name string, parent int, fn func() error) error {
	id := t.begin(name, parent, 0)
	defer t.end(id)
	return fn()
}

// add records a span whose interval was measured elsewhere (a knemd stage
// rebuilt from the ledger's transition timestamps).
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates total and self time by span name.
type spanSummary struct {
	Name        string
	Count       int
	TotalMillis float64
	SelfMillis  float64
}

func summarise(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalMillis += (s.End - s.Start).Seconds() * 1e3
		a.SelfMillis += self[s.ID].Seconds() * 1e3
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMillis > out[j].SelfMillis })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each op is one track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
