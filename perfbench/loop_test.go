package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsFromDueTime stalls the first op with room for one op
// in flight: the generator falls behind, later ops are sent late, and
// their latency includes the wait because it counts from the due time.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	ops := make([]Op, 20)
	for i := range ops {
		ops[i].Due = time.Duration(i) * time.Millisecond
	}
	var calls atomic.Int32
	run := func(ctx context.Context, op *Op) done {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return done{end: time.Now()}
	}
	_, outs := openLoop(context.Background(), ops, func(*Op) bool { return false }, 1, run)
	var late []float64
	for i, o := range outs {
		late = append(late, ms(o.late()))
		if i == 0 {
			continue
		}
		if o.sent < stall-time.Millisecond {
			t.Errorf("op %d sent at %v, before the stalled op freed the generator", i, o.sent)
		}
		if o.latency() < o.sent-o.due {
			t.Errorf("op %d latency %v misses its %v of lateness", i, o.latency(), o.sent-o.due)
		}
	}
	if p99 := quantile(late, 0.99); p99 < ms(stall)/2 {
		t.Errorf("late p99 = %.1fms, want it to show the %v stall", p99, stall)
	}
	if o := outs[5]; o.latency() < stall-5*time.Millisecond {
		t.Errorf("op 5 latency %v, want at least the stall minus its due time", o.latency())
	}
}

// TestOpenLoopSerialOpsRunInOrder checks the one-session path ops take.
func TestOpenLoopSerialOpsRunInOrder(t *testing.T) {
	ops := make([]Op, 30)
	for i := range ops {
		ops[i].Due = time.Duration(i) * 100 * time.Microsecond
		ops[i].Batch = i
	}
	var seen []int
	run := func(ctx context.Context, op *Op) done {
		seen = append(seen, op.Batch) // one session: no concurrent calls
		time.Sleep(time.Millisecond)
		return done{end: time.Now()}
	}
	openLoop(context.Background(), ops, func(*Op) bool { return true }, 4, run)
	for i, b := range seen {
		if b != i {
			t.Fatalf("serial ops ran in order %v", seen)
		}
	}
}

func TestClosedLoopRepeatsCycle(t *testing.T) {
	cycle := []Op{{Batch: 0}, {Batch: 1}, {Batch: 2}}
	run := func(ctx context.Context, op *Op) done {
		time.Sleep(2 * time.Millisecond)
		return done{end: time.Now()}
	}
	_, outs := closedLoop(context.Background(), cycle, 30*time.Millisecond, run)
	if len(outs) < 6 || len(outs)%len(cycle) != 0 {
		t.Fatalf("closed loop ran %d ops in 30ms of 2ms ops, want whole cycles", len(outs))
	}
	for i, o := range outs {
		if o.op.Batch != i%3 || o.late() != 0 {
			t.Fatalf("op %d: batch %d late %v", i, o.op.Batch, o.late())
		}
		if i > 0 && o.sent < outs[i-1].end {
			t.Fatalf("op %d sent before op %d answered", i, i-1)
		}
	}
}

// TestScanRowsPerSecond checks both denominators of scan_rows_per_s: two
// 100-row statements of 10 ms each, the second due 90 ms after the first.
// A closed loop divides by their latencies (20 ms), an open loop by the
// span from the first due time to the last completion (100 ms).
func TestScanRowsPerSecond(t *testing.T) {
	op := &Op{}
	outs := []outcome{
		{op: op, due: 0, end: 10 * time.Millisecond, done: done{rows: 100}},
		{op: op, due: 90 * time.Millisecond, end: 100 * time.Millisecond, done: done{rows: 100}},
	}
	for _, c := range []struct {
		open bool
		want float64
	}{{false, 10000}, {true, 2000}} {
		res := &result{}
		endToEnd(res, outs, func(outcome) bool { return true }, c.open, 50, []float64{1}, len(outs), time.Millisecond, 1<<20)
		if got := res.Metrics["scan_rows_per_s"].Value; got < c.want*0.999 || got > c.want*1.001 {
			t.Errorf("open=%v: scan_rows_per_s = %g, want %g", c.open, got, c.want)
		}
	}
}
