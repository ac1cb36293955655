package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the benchmark's spans in memory until the run ends. A
// span wraps one call into a layer's public API or one HTTP route; spans
// of one operation share a trace id and point at the span that caused
// them. A nil *tracer records nothing, but its spans still time their
// interval, so the measured loop is the same code traced or not.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	SelfMS float64 `json:"self_ms"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

func (t *tracer) begin(trace, name string, parent int64) spanRef {
	s := spanRef{t: t, parent: parent, trace: trace, name: name, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		t.next++
		s.id = t.next
		t.mu.Unlock()
	}
	return s
}

// end records the span (when tracing) and returns its duration.
func (s spanRef) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
			Start: ms(s.start.Sub(s.t.t0)), End: ms(now.Sub(s.t.t0)),
		})
		s.t.mu.Unlock()
	}
	return d
}

// durations returns the durations of every recorded span with name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration((s.End-s.Start)*float64(time.Millisecond)))
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, in ms.
func (t *tracer) medianMS(name string) float64 { return median(durationsMS(t.durations(name))) }

// write fills in each span's self time (its duration minus the time its
// children cover; a span's children here run one after another) and
// writes the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		s.SelfMS = s.End - s.Start - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// event is one structured log record captured from a layer's logger.
type event struct {
	At    time.Time
	Msg   string
	Attrs map[string]string
}

// eventLog is a slog.Handler that keeps the records whose message is in
// keep, so the benchmark can time protocol steps a layer only logs.
type eventLog struct {
	keep   map[string]bool
	mu     *sync.Mutex
	events *[]event
}

func newEventLog(msgs ...string) eventLog {
	keep := map[string]bool{}
	for _, m := range msgs {
		keep[m] = true
	}
	return eventLog{keep: keep, mu: &sync.Mutex{}, events: &[]event{}}
}

func (l eventLog) Enabled(context.Context, slog.Level) bool { return true }

func (l eventLog) Handle(_ context.Context, r slog.Record) error {
	if !l.keep[r.Message] {
		return nil
	}
	e := event{At: r.Time, Msg: r.Message, Attrs: map[string]string{}}
	r.Attrs(func(a slog.Attr) bool {
		e.Attrs[a.Key] = fmt.Sprint(a.Value.Any())
		return true
	})
	l.mu.Lock()
	*l.events = append(*l.events, e)
	l.mu.Unlock()
	return nil
}

func (l eventLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l eventLog) WithGroup(string) slog.Handler      { return l }

// take returns the captured events and clears the log.
func (l eventLog) take() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := *l.events
	*l.events = nil
	return out
}
