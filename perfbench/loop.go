package main

import (
	"context"
	"sync"
	"time"
)

// done is what running one op reports: when the system answered (before
// the answer is verified), how many table rows the statement scanned, and
// whether it failed or answered wrongly.
type done struct {
	end   time.Time
	rows  int
	err   error // the system failed or refused the op
	wrong error // the system answered, and the answer is wrong
}

// outcome is one op's timing relative to the window start.
type outcome struct {
	op   *Op
	due  time.Duration
	sent time.Duration
	end  time.Duration
	done
}

// latency counts from the op's due time, so a stall that delays later
// sends shows in their latency too.
func (o outcome) latency() time.Duration { return o.end - o.due }

// late is how far behind schedule the generator sent the op.
func (o outcome) late() time.Duration { return o.sent - o.due }

type runFunc func(ctx context.Context, op *Op) done

// leadIn is the gap between starting the generator and the first possible
// due time, so the first op is not late by construction.
const leadIn = 5 * time.Millisecond

// openLoop sends ops at their due times regardless of completions. Ops for
// which serial is true go, in order, through one session (a writer that
// waits for each reply); every other op gets its own goroutine, at most
// maxOut at once, beyond which the generator blocks and falls behind.
func openLoop(ctx context.Context, ops []Op, serial func(*Op) bool, maxOut int, run runFunc) (time.Time, []outcome) {
	t0 := time.Now().Add(leadIn)
	outs := make([]outcome, len(ops))
	record := func(i int) {
		outs[i].op = &ops[i]
		outs[i].due = ops[i].Due
		outs[i].sent = time.Since(t0)
		outs[i].done = run(ctx, &ops[i])
		outs[i].end = outs[i].done.end.Sub(t0)
	}
	var wg sync.WaitGroup
	serialCh := make(chan int, len(ops)) // sized to the stream: the generator never waits on the writer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range serialCh {
			sleepUntil(ctx, t0.Add(ops[i].Due))
			record(i)
		}
	}()
	sem := make(chan struct{}, maxOut)
	for i := range ops {
		if serial(&ops[i]) {
			serialCh <- i
			continue
		}
		sleepUntil(ctx, t0.Add(ops[i].Due))
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			outs[i] = outcome{op: &ops[i], due: ops[i].Due, sent: time.Since(t0), end: time.Since(t0),
				done: done{end: time.Now(), err: ctx.Err()}}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			record(i)
		}(i)
	}
	close(serialCh)
	wg.Wait()
	return t0, outs
}

// closedLoop is one client repeating cycle for window: each op is sent when
// the previous answer arrives. It stops only between cycles, so every
// statement of the cycle runs equally often.
func closedLoop(ctx context.Context, cycle []Op, window time.Duration, run runFunc) (time.Time, []outcome) {
	t0 := time.Now()
	var outs []outcome
	for i := 0; (i%len(cycle) != 0 || time.Since(t0) < window) && ctx.Err() == nil; i++ {
		op := &cycle[i%len(cycle)]
		o := outcome{op: op, sent: time.Since(t0)}
		o.due = o.sent
		o.done = run(ctx, op)
		o.end = o.done.end.Sub(t0)
		outs = append(outs, o)
	}
	return t0, outs
}

func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}
