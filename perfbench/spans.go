package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded from outside the
// program: the benchmark wraps a public function or interface and notes when
// the call entered and left. Times are nanoseconds since the recorder's base.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows and Trees size an engine call; Bytes counts a wire body.
	Rows  int64 `json:"rows,omitempty"`
	Trees int   `json:"trees,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder, or one
// switched off, records nothing, so wrappers cost one atomic load when idle.
type recorder struct {
	base time.Time
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

type spanKey struct{}

// active is an open span; finish closes and stores it.
type active struct {
	r *recorder
	s Span
}

// start opens a span under the span ctx carries, if any, and returns a
// context that makes the new span the parent of calls made with it.
func (r *recorder) start(ctx context.Context, layer, name string) (context.Context, *active) {
	if r == nil || !r.on.Load() {
		return ctx, nil
	}
	a := &active{r: r, s: Span{ID: r.next.Add(1), Layer: layer, Name: name}}
	if p, ok := ctx.Value(spanKey{}).(uint64); ok {
		a.s.Parent = p
	}
	a.s.Start = int64(time.Since(r.base))
	return context.WithValue(ctx, spanKey{}, a.s.ID), a
}

// finish closes the span. Nil-safe, so callers need not check whether
// tracing was on.
func (a *active) finish() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.base))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// snapshot returns the recorded spans sorted by start time.
func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes the spans to path, one JSON object per line.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// unionWithin is how much of [lo, hi) the given spans cover, counting time
// covered by several overlapping spans (a hedge and its primary) once.
func unionWithin(lo, hi int64, spans []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	total += curB - curA
	return time.Duration(total)
}

// selfTime is a span's duration minus the union of its children.
func selfTime(s Span, children []Span) time.Duration {
	return s.Dur() - unionWithin(s.Start, s.End, children)
}

// contained returns the spans of layer whose interval lies inside s. Engine
// and journal calls carry no parent (the executor scores a coalesced batch
// under its own context), so they are matched to queries by time.
func contained(s Span, layer string, spans []Span) []Span {
	var out []Span
	for _, c := range spans {
		if c.Layer == layer && c.Start >= s.Start && c.End <= s.End {
			out = append(out, c)
		}
	}
	return out
}

// childrenOf returns the spans whose parent is s.
func childrenOf(s Span, spans []Span) []Span {
	var out []Span
	for _, c := range spans {
		if c.Parent == s.ID {
			out = append(out, c)
		}
	}
	return out
}
