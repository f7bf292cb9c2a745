package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"accelscore/internal/db"
)

// calibrationJSON records each workload's fixed arrival rate and latency
// limit together with the measurements they were set from.
//
//go:embed calibration.json
var calibrationJSON []byte

type calibration struct {
	Workloads map[string]struct {
		Rate    float64 `json:"rate_per_s"`
		LimitMS float64 `json:"latency_limit_ms"`
	} `json:"workloads"`
}

// spec describes how to build and drive one workload.
type spec struct {
	// open selects an open loop at the calibrated rate; closed-loop
	// workloads have one client repeating a statement cycle.
	open  bool
	table string
	setup func(ctx context.Context, e *env, inserts int) (system, *artifacts, error)
	gen   func(seed uint64, n int, window time.Duration, fx *fixture) []Op
	// inserts bounds how many INSERT batches an n-op stream holds (nil:
	// none); set-up generates that many batches of rows.
	inserts func(n int) int
}

var specs = map[string]spec{
	"warm_point": {
		open: true, table: higgsTable, gen: genWarmPoint,
		setup: func(ctx context.Context, e *env, _ int) (system, *artifacts, error) {
			return setupInMemory(ctx, e, []string{"m16", "m64", "m128"})
		},
	},
	"bulk_scan": {
		table: higgsTable,
		gen: func(seed uint64, _ int, _ time.Duration, fx *fixture) []Op {
			return genBulkScan(seed, fx)
		},
		setup: func(ctx context.Context, e *env, _ int) (system, *artifacts, error) {
			return setupInMemory(ctx, e, []string{"m64"})
		},
	},
	"ingest_mix": {
		open: true, table: higgsTable, gen: genIngestMix, setup: setupIngest, inserts: ingestInserts,
	},
	"sharded_tier": {
		open: true, table: shardTable, gen: genShardedTier,
		setup: func(ctx context.Context, e *env, _ int) (system, *artifacts, error) {
			return setupSharded(ctx, e)
		},
	},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// rate overrides the calibrated open-loop rate (0 = calibrated).
	rate float64
	// setups is how many times the system is built; setup_s is their
	// median and the last one is measured.
	setups int
	env    env
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// phase holds what the traced run samples when recording switches on, a
// third of the way into the window: the first third runs with recording
// off and gives the untraced baseline of loadgen.trace_overhead_ratio.
type phase struct {
	mu       sync.Mutex
	at       time.Time
	counters map[string]float64
	shardCPU time.Duration
	err      error
	depths   []float64
	stop     chan struct{}
	done     chan struct{}
}

func runBench(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want warm_point, bulk_scan, ingest_mix or sharded_tier)", cfg.workload)
	}
	if cfg.workload == "sharded_tier" && cfg.env.serveBin == "" {
		return nil, errors.New("sharded_tier needs --serve-bin")
	}
	if cfg.window <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	var cal calibration
	if err := json.Unmarshal(calibrationJSON, &cal); err != nil {
		return nil, fmt.Errorf("calibration.json: %w", err)
	}
	c := cal.Workloads[cfg.workload]
	rate := c.Rate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	n, inserts := 0, 0
	if sp.open {
		n = int(math.Round(rate * cfg.window.Seconds()))
		if n < 1 {
			return nil, fmt.Errorf("rate %g/s offers no ops in %v", rate, cfg.window)
		}
	}
	if sp.inserts != nil {
		inserts = sp.inserts(n)
	}
	if err := os.MkdirAll(cfg.env.workDir, 0o755); err != nil {
		return nil, err
	}
	e := cfg.env
	if cfg.trace {
		e.rec = newRecorder()
	}

	var sys system
	var art *artifacts
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var setupS []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		s, a, err := sp.setup(ctx, &e, inserts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		sys, art = s, a
	}

	fx := newFixture(sp.table, art.data, art.initial, art.pool)
	ops := sp.gen(cfg.seed, n, cfg.window, fx)
	need := map[string]int{}
	batches := 0
	for _, op := range ops {
		if !op.scoring() {
			batches++
			continue
		}
		rows := art.data.NumRecords()
		if op.Limit > 0 {
			rows = min(op.Limit, art.initial)
		}
		need[op.Model] = max(need[op.Model], rows)
	}
	if batches > inserts {
		return nil, fmt.Errorf("stream holds %d INSERT batches, the pool only %d", batches, inserts)
	}
	orc, err := newOracle(art.data, art.initial, batches, art.forests, need)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	runOp := func(ctx context.Context, op *Op) done {
		d, ans := sys.run(ctx, op)
		if d.err == nil && d.wrong == nil {
			d.wrong = orc.check(*op, ans)
		}
		return d
	}
	pids := append([]int{os.Getpid()}, sys.shardPIDs()...)
	cpu0, err := cpuOf(pids)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(pids, 10*time.Millisecond)
	steal := sampleSteal(time.Second)
	var ph *phase
	var timer *time.Timer
	if cfg.trace {
		ph = &phase{stop: make(chan struct{}), done: make(chan struct{})}
		timer = time.AfterFunc(leadIn+cfg.window/3, func() { ph.begin(e.rec, sys) })
	}
	var t0 time.Time
	var outs []outcome
	if sp.open {
		t0, outs = openLoop(ctx, ops, func(op *Op) bool { return op.Kind == opInsert }, 1024, runOp)
	} else {
		t0, outs = closedLoop(ctx, ops, cfg.window, runOp)
	}
	tEnd := time.Now()
	cpu1, cpuErr := cpuOf(pids)
	peak, rssErr := rss.finish()
	segs, stealErr := steal.finish()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run interrupted: %w", err)
	}
	if cpuErr != nil || rssErr != nil || stealErr != nil {
		return nil, fmt.Errorf("reading /proc: %v", errors.Join(cpuErr, rssErr, stealErr))
	}

	res := &result{Correct: true, Attempted: len(outs)}
	completed := 0
	var wrongs []string
	for _, o := range outs {
		switch {
		case o.err != nil:
			if res.Failed < 3 {
				fmt.Fprintf(log, "failed: %s: %v\n", o.op.SQL, o.err)
			}
			res.Failed++
		case o.wrong != nil:
			completed++
			res.Correct = false
			wrongs = append(wrongs, fmt.Sprintf("%s: %v", o.op.SQL, o.wrong))
		default:
			completed++
		}
	}
	for i, w := range wrongs {
		if i == 5 {
			fmt.Fprintf(log, "... and %d more wrong answers\n", len(wrongs)-5)
			break
		}
		fmt.Fprintf(log, "wrong answer: %s\n", w)
	}
	if completed == 0 {
		return nil, fmt.Errorf("no op completed (%d failed)", res.Failed)
	}
	if !cfg.trace {
		q := quiet(segs)
		endToEnd(res, outs, func(o outcome) bool { return !sp.open || inSegments(q, t0.Add(o.due)) }, sp.open, c.LimitMS, setupS, completed, cpu1-cpu0, peak)
		return res, nil
	}

	if timer.Stop() {
		return nil, errors.New("window ended before recording switched on")
	}
	close(ph.stop)
	<-ph.done
	if ph.err != nil {
		return nil, fmt.Errorf("reading /proc: %w", ph.err)
	}
	spans := e.rec.snapshot()
	path := filepath.Join(cfg.env.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "wrote %d spans to %s\n", len(spans), path)
	shardCPU, err := cpuOf(sys.shardPIDs())
	if err != nil {
		return nil, err
	}
	layerMetrics(res, layerInput{
		outs: outs, spans: spans, ops: ops, split: ph.at.Sub(t0),
		before: ph.counters, after: sys.counters(),
		depths: ph.depths, shardCPU: shardCPU - ph.shardCPU,
		window: tEnd.Sub(ph.at), steal: stealShare(segs),
	})
	return res, nil
}

// begin switches recording on and starts sampling the executor queue.
func (ph *phase) begin(rec *recorder, sys system) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.counters = sys.counters()
	ph.shardCPU, ph.err = cpuOf(sys.shardPIDs())
	ph.at = time.Now()
	rec.on.Store(true)
	go func() {
		defer close(ph.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ph.stop:
				return
			case <-t.C:
				d := float64(sys.queued())
				ph.mu.Lock()
				ph.depths = append(ph.depths, d)
				ph.mu.Unlock()
			}
		}
	}()
}

// endToEnd fills the untraced run's metrics. Latency metrics and
// slo_attain count the scoring statements for which keep is true (on an
// open loop those due in the window's quiet seconds, see host.go).
// scan_rows_per_s divides the rows every answered statement scanned by the
// time the system spent on them: for the closed loop, which keeps every
// statement, the sum of their latencies, which leaves out the benchmark's
// own checking between statements; for an open loop the span achieved_qps
// uses, so it reads the offered row rate unless a backlog builds.
func endToEnd(res *result, outs []outcome, keep func(outcome) bool, open bool, limitMS float64, setupS []float64, completed int, cpu time.Duration, peak int64) {
	limit := time.Duration(limitMS * float64(time.Millisecond))
	var lat []float64
	var rows, busy float64
	var offered, good int
	first, last := outs[0].due, outs[0].end
	for _, o := range outs {
		first = min(first, o.due)
		if o.err == nil {
			last = max(last, o.end)
		}
		if !o.op.scoring() {
			continue
		}
		if o.err == nil {
			rows += float64(o.rows)
		}
		if !keep(o) {
			continue
		}
		offered++
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency()))
		busy += o.latency().Seconds()
		if o.wrong == nil && o.latency() <= limit {
			good++
		}
	}
	res.add("setup_s", median(setupS), "s")
	res.add("query_p50_ms", quantile(lat, 0.5), "ms")
	res.add("query_p95_ms", quantile(lat, 0.95), "ms")
	span := (last - first).Seconds()
	res.add("achieved_qps", float64(completed)/span, "1/s")
	if open {
		busy = span
	}
	res.add("scan_rows_per_s", ratio(rows, busy), "rows/s")
	res.add("slo_attain", ratio(float64(good), float64(offered)), "ratio")
	res.add("cpu_ms_per_op", ms(cpu)/float64(completed), "ms")
	res.add("mem_peak_mb", float64(peak)/(1<<20), "MiB")
}

// layerInput is what the traced run measured.
type layerInput struct {
	outs  []outcome
	spans []Span
	ops   []Op
	// split is when recording switched on, from the window start.
	split         time.Duration
	before, after map[string]float64
	depths        []float64
	shardCPU      time.Duration
	window        time.Duration
	// steal is the host's steal share over the window (see host.go).
	steal float64
}

// layerMetrics fills the traced run's per-layer metrics. A layer the
// workload never reaches reports 0.
func layerMetrics(res *result, in layerInput) {
	delta := func(k string) float64 { return in.after[k] - in.before[k] }
	byLayer := map[string][]Span{}
	for _, s := range in.spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
	}
	durs := func(spans []Span, f func(Span) time.Duration) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = float64(f(s))
		}
		return out
	}
	dur := func(s Span) time.Duration { return s.Dur() }

	// loadgen
	var late, untraced, traced []float64
	for _, o := range in.outs {
		late = append(late, ms(o.late()))
		if o.op.scoring() && o.err == nil {
			if o.due < in.split {
				untraced = append(untraced, ms(o.latency()))
			} else {
				traced = append(traced, ms(o.latency()))
			}
		}
	}
	res.add("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	res.add("loadgen.trace_overhead_ratio", ratio(quantile(traced, 0.5), quantile(untraced, 0.5)), "ratio")
	res.add("loadgen.steal_share", in.steal, "ratio")

	// exec: a query's span minus its longest engine call is its wait for a
	// worker, a device and its coalescing window; approximate when
	// concurrent queries' engine calls fall inside it.
	engines := byLayer[layerEngines]
	execs := byLayer[layerExec]
	wait := durs(execs, func(s Span) time.Duration {
		var longest time.Duration
		for _, c := range contained(s, layerEngines, engines) {
			longest = max(longest, c.Dur())
		}
		return s.Dur() - longest
	})
	self := durs(execs, func(s Span) time.Duration { return selfTime(s, contained(s, layerEngines, engines)) })
	res.add("exec.batch_size_mean", ratio(delta("batched"), delta("batches")), "count")
	res.add("exec.queue_depth_mean", mean(in.depths), "count")
	res.add("exec.wait_ms_p50", ms(time.Duration(quantile(wait, 0.5))), "ms")

	// pipeline
	res.add("pipeline.model_cache_hit_ratio", ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses")), "ratio")
	res.add("pipeline.self_ms_p50", ms(time.Duration(quantile(self, 0.5))), "ms")

	// db
	var parse []float64
	for len(parse) < 1000 && len(in.ops) > 0 {
		for _, op := range in.ops {
			t := time.Now()
			db.Parse(op.SQL)
			parse = append(parse, us(time.Since(t)))
		}
	}
	inserts := byLayer[layerDB]
	journals := byLayer[layerStorage]
	var insertLat []float64
	for _, o := range in.outs {
		if o.op.Kind == opInsert && o.err == nil {
			insertLat = append(insertLat, ms(o.latency()))
		}
	}
	res.add("db.parse_us_p50", quantile(parse, 0.5), "us")
	res.add("db.snapshot_hit_ratio", ratio(delta("snap_hits"), delta("snap_hits")+delta("snap_misses")), "ratio")
	res.add("db.insert_p50_ms", quantile(insertLat, 0.5), "ms")
	res.add("db.insert_p99_ms", quantile(insertLat, 0.99), "ms")
	res.add("db.insert_self_us_p50", us(time.Duration(quantile(durs(inserts, func(s Span) time.Duration {
		return selfTime(s, contained(s, layerStorage, journals))
	}), 0.5))), "us")

	// storage
	insertedRows := float64(len(inserts) * insertBatch)
	res.add("storage.journal_us_p50", us(time.Duration(quantile(durs(journals, dur), 0.5))), "us")
	res.add("storage.journal_us_p99", us(time.Duration(quantile(durs(journals, dur), 0.99))), "us")
	res.add("storage.wal_bytes_per_row", ratio(delta("wal_bytes"), insertedRows), "B/row")
	res.add("storage.fsyncs_per_insert", ratio(delta("fsyncs"), float64(len(inserts))), "count")
	res.add("storage.compactions", delta("compactions"), "count")

	// engines
	var engineBusy time.Duration
	var rowTrees float64
	for _, s := range engines {
		engineBusy += s.Dur()
		rowTrees += float64(s.Rows) * float64(s.Trees)
	}
	res.add("engines.calls", float64(len(engines)), "count")
	res.add("engines.ms_p50", ms(time.Duration(quantile(durs(engines, dur), 0.5))), "ms")
	res.add("engines.ns_per_row_tree", ratio(float64(engineBusy), rowTrees), "ns")
	res.add("engines.busy_frac", ratio(engineBusy.Seconds(), in.window.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	// router
	shards := byLayer[layerShard]
	var routerSelf, gaps []float64
	for _, s := range byLayer[layerRouter] {
		kids := childrenOf(s, shards)
		routerSelf = append(routerSelf, float64(selfTime(s, kids)))
		if len(kids) > 1 {
			lo, hi := kids[0].Dur(), kids[0].Dur()
			for _, k := range kids[1:] {
				lo, hi = min(lo, k.Dur()), max(hi, k.Dur())
			}
			gaps = append(gaps, float64(hi-lo))
		}
	}
	var bodyBytes, shardRows float64
	for _, s := range byLayer[layerBody] {
		bodyBytes += float64(s.Bytes)
	}
	for _, s := range shards {
		shardRows += float64(s.Rows)
	}
	res.add("router.self_ms_p50", ms(time.Duration(quantile(routerSelf, 0.5))), "ms")
	res.add("router.shard_rtt_ms_p50", ms(time.Duration(quantile(durs(shards, dur), 0.5))), "ms")
	res.add("router.shard_rtt_ms_p99", ms(time.Duration(quantile(durs(shards, dur), 0.99))), "ms")
	res.add("router.straggler_gap_ms_p50", ms(time.Duration(quantile(gaps, 0.5))), "ms")
	res.add("router.hedge_ratio", ratio(delta("hedges"), delta("subqueries")), "ratio")
	res.add("router.shed_ratio", ratio(delta("shed"), delta("offered")), "ratio")
	res.add("router.reroutes", delta("reroutes"), "count")
	res.add("router.wire_bytes_per_row", ratio(bodyBytes, shardRows), "B/row")
	res.add("router.wire_body_ms_p50", ms(time.Duration(quantile(durs(byLayer[layerBody], dur), 0.5))), "ms")

	// serve
	res.add("serve.cpu_ms_per_subquery", ratio(ms(in.shardCPU), float64(len(shards))), "ms")
	sort.Strings(res.order)
}
