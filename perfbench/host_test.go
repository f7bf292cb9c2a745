package main

import (
	"testing"
	"time"
)

// TestQuietSeconds checks that the quiet segments are those at or below
// the first quartile of the steal shares, and that an op is kept only when
// its due time falls inside one of them.
func TestQuietSeconds(t *testing.T) {
	t0 := time.Now()
	sec := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	var segs []segment
	for i, share := range []float64{0.05, 0.4, 0.1, 0.3, 0.05, 0.2, 0.35, 0.25} {
		segs = append(segs, segment{from: sec(i), to: sec(i + 1), share: share})
	}
	q := quiet(segs)
	if len(q) != 2 || q[0].from != sec(0) || q[1].from != sec(4) {
		t.Fatalf("quiet = %+v, want the two segments with share 0.05", q)
	}
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{
		{-time.Millisecond, false},
		{500 * time.Millisecond, true},
		{1500 * time.Millisecond, false},
		{2500 * time.Millisecond, false},
		{4 * time.Second, true},
		{4500 * time.Millisecond, true},
		{5500 * time.Millisecond, false},
		{9 * time.Second, false},
	} {
		if got := inSegments(q, t0.Add(c.at)); got != c.want {
			t.Errorf("inSegments at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := stealShare(segs); got < 0.2124 || got > 0.2126 {
		t.Errorf("stealShare = %g, want 0.2125", got)
	}
	// A host that stole little keeps every segment.
	for i := range segs {
		segs[i].share = float64(i) * quietFloor / float64(len(segs))
	}
	if q := quiet(segs); len(q) != len(segs) {
		t.Errorf("quiet host kept %d of %d segments", len(q), len(segs))
	}
}

func TestReadHostTimes(t *testing.T) {
	h, err := readHostTimes()
	if err != nil {
		t.Fatal(err)
	}
	if h.busy <= 0 || h.steal < 0 {
		t.Errorf("host times %+v", h)
	}
}
