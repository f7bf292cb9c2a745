package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	// A primary sub-query and its hedge overlap in [30, 50); a third child
	// runs past the parent's end and counts only up to it.
	kids := []Span{
		{Parent: 1, Start: 10, End: 50},
		{Parent: 1, Start: 30, End: 60},
		{Parent: 1, Start: 90, End: 120},
	}
	if got, want := unionWithin(0, 100, kids), time.Duration(60); got != want {
		t.Errorf("union = %v, want %v", got, want)
	}
	if got, want := selfTime(parent, kids), time.Duration(40); got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100ns", got)
	}
}

func TestRecorderLinksParentsThroughContext(t *testing.T) {
	r := newRecorder()
	ctx, a := r.start(context.Background(), "router", "q")
	if a != nil {
		t.Fatal("a recorder that is off recorded a span")
	}
	r.on.Store(true)
	ctx, a = r.start(context.Background(), "router", "q")
	_, b := r.start(ctx, "shard", "s")
	b.finish()
	a.finish()
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	q, s := spans[0], spans[1]
	if q.Layer != "router" || s.Parent != q.ID || q.Parent != 0 {
		t.Errorf("spans %+v: want the shard span parented to the router span", spans)
	}
	if kids := childrenOf(q, spans); len(kids) != 1 || kids[0].ID != s.ID {
		t.Errorf("childrenOf = %+v", kids)
	}
	var nilRec *recorder
	if _, a := nilRec.start(context.Background(), "x", "y"); a != nil {
		t.Error("a nil recorder recorded a span")
	}
	(*active)(nil).finish()
}

func TestContainedMatchesByInterval(t *testing.T) {
	q := Span{Layer: layerExec, Start: 100, End: 200}
	spans := []Span{
		{Layer: layerEngines, Start: 120, End: 180},
		{Layer: layerEngines, Start: 90, End: 150},
		{Layer: layerStorage, Start: 130, End: 140},
	}
	got := contained(q, layerEngines, spans)
	if len(got) != 1 || got[0].Start != 120 {
		t.Errorf("contained = %+v, want only the engine call inside the query", got)
	}
}
