package main

import (
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// smallSizes keeps test systems quick to build.
var smallSizes = sizes{higgsRows: 3000, ingestRows: 2000, shardRows: 2000, trainRows: 200}

func smallConfig(t *testing.T, workload string) config {
	return config{
		workload: workload,
		seed:     1,
		window:   time.Second,
		rate:     40,
		setups:   1,
		env:      env{workDir: t.TempDir(), sizes: smallSizes},
	}
}

var (
	serveOnce sync.Once
	serveBin  string
	serveErr  error
)

// buildServe builds cmd/serve once for the tests that run shards.
func buildServe(t *testing.T) string {
	t.Helper()
	serveOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-serve-")
		if err != nil {
			serveErr = err
			return
		}
		serveBin = filepath.Join(dir, "serve")
		out, err := exec.Command("go", "build", "-o", serveBin, "accelscore/cmd/serve").CombinedOutput()
		if err != nil {
			serveErr = err
			t.Logf("%s", out)
		}
	})
	if serveErr != nil {
		t.Fatalf("building cmd/serve: %v", serveErr)
	}
	return serveBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin != "" {
		os.RemoveAll(filepath.Dir(serveBin))
	}
	os.Exit(code)
}

// runSmall runs a small benchmark and returns the exit status report gives.
func runSmall(t *testing.T, cfg config) (int, *result) {
	t.Helper()
	res, err := runBench(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Logf("run failed: %v", err)
	}
	return report(res, err, io.Discard, io.Discard), res
}

func TestCleanRunsPass(t *testing.T) {
	for _, w := range []string{"warm_point", "bulk_scan", "ingest_mix"} {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, w)
			cfg.trace = trace
			code, res := runSmall(t, cfg)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w, trace, code, res)
			}
			names := endToEndNames
			if trace {
				names = layerNames
			}
			for _, name := range names {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(names))
			}
		}
	}
}

var endToEndNames = []string{"setup_s", "query_p50_ms", "query_p95_ms", "achieved_qps",
	"scan_rows_per_s", "slo_attain", "cpu_ms_per_op", "mem_peak_mb"}

var layerNames = []string{
	"loadgen.late_p99_ms", "loadgen.trace_overhead_ratio", "loadgen.steal_share",
	"exec.batch_size_mean", "exec.queue_depth_mean", "exec.wait_ms_p50",
	"pipeline.model_cache_hit_ratio", "pipeline.self_ms_p50",
	"db.parse_us_p50", "db.snapshot_hit_ratio", "db.insert_p50_ms", "db.insert_p99_ms", "db.insert_self_us_p50",
	"storage.journal_us_p50", "storage.journal_us_p99", "storage.wal_bytes_per_row",
	"storage.fsyncs_per_insert", "storage.compactions",
	"engines.calls", "engines.ms_p50", "engines.ns_per_row_tree", "engines.busy_frac",
	"router.self_ms_p50", "router.shard_rtt_ms_p50", "router.shard_rtt_ms_p99",
	"router.straggler_gap_ms_p50", "router.hedge_ratio", "router.shed_ratio", "router.reroutes",
	"router.wire_bytes_per_row", "router.wire_body_ms_p50",
	"serve.cpu_ms_per_subquery",
}

// tamperOnce corrupts the first result f accepts.
func tamperOnce(f func(any) bool) func(any) {
	var mu sync.Mutex
	done := false
	return func(res any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			done = f(res)
		}
	}
}

// moveOne returns a copy of a (prediction, count) table with one more row
// counted in its first bucket.
func moveOne(t *testing.T, tbl *db.Table) *db.Table {
	t.Helper()
	out, err := db.NewTable(tbl.Name, tbl.Columns)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows() {
		if i == 0 {
			row[1].I++
		}
		if err := out.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// dropPartition removes the rows of hash partition 1 of 2 from a dense
// merged scan, as if that shard's answer never arrived.
func dropPartition(m *router.Merged) bool {
	if len(m.Predictions) < 2 || m.ScoredRows != nil {
		return false
	}
	part := pipeline.Partition{Index: 1, Count: 2}
	var preds, ords []int
	for i, c := range m.Predictions {
		if !part.Keep(i) {
			preds = append(preds, c)
			ords = append(ords, i)
		}
	}
	m.Predictions, m.ScoredRows = preds, ords
	return true
}

func TestFlippedPredictionFailsRun(t *testing.T) {
	cfg := smallConfig(t, "warm_point")
	cfg.env.tamper = tamperOnce(func(res any) bool {
		r := res.(*pipeline.QueryResult)
		if len(r.Predictions) == 0 {
			return false
		}
		r.Predictions[len(r.Predictions)/2] ^= 1
		return true
	})
	if code, res := runSmall(t, cfg); code == 0 || res == nil || res.Correct {
		t.Fatalf("a flipped prediction passed: exit %d", code)
	}
}

func TestWrongHistogramBucketFailsRun(t *testing.T) {
	cfg := smallConfig(t, "bulk_scan")
	cfg.env.tamper = tamperOnce(func(res any) bool {
		r := res.(*pipeline.QueryResult)
		if r.Table == nil || len(r.Table.Columns) != 2 {
			return false
		}
		r.Table = moveOne(t, r.Table)
		return true
	})
	if code, res := runSmall(t, cfg); code == 0 || res == nil || res.Correct {
		t.Fatalf("a wrong histogram bucket passed: exit %d", code)
	}
}

// shardPIDs returns the PIDs the wrapper script recorded.
func recordedPIDs(t *testing.T, file string) []int {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range strings.Fields(string(b)) {
		p, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p)
	}
	return pids
}

// pidWrapper is a serve binary stand-in that records its PID and then
// becomes the real serve process (exec keeps the PID). With failAfter > 0,
// invocations after the failAfter-th exit at once instead.
func pidWrapper(t *testing.T, failAfter int) (bin, pidFile string) {
	t.Helper()
	dir := t.TempDir()
	pidFile = filepath.Join(dir, "pids")
	bin = filepath.Join(dir, "serve.sh")
	script := "#!/bin/sh\necho $$ >> " + pidFile + "\n"
	if failAfter > 0 {
		script += "[ $(wc -l < " + pidFile + ") -gt " + strconv.Itoa(failAfter) + " ] && exit 3\n"
	}
	script += "exec " + buildServe(t) + " \"$@\"\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin, pidFile
}

// assertReaped fails unless every PID is gone: killed and waited for, so
// not even a zombie is left.
func assertReaped(t *testing.T, pids []int) {
	t.Helper()
	if len(pids) == 0 {
		t.Fatal("no shard was started")
	}
	for _, p := range pids {
		if _, err := os.Stat("/proc/" + strconv.Itoa(p)); err == nil {
			t.Errorf("shard process %d outlived the run", p)
		}
	}
}

func TestShardsReapedOnEveryExitPath(t *testing.T) {
	cases := []struct {
		name      string
		failAfter int
		tamper    func(any)
		cancel    time.Duration
		wantCode  int
	}{
		{name: "clean run", wantCode: 0},
		{name: "missing partition", wantCode: 1, tamper: tamperOnce(func(res any) bool {
			return dropPartition(res.(*router.Merged))
		})},
		{name: "shard fails to start", failAfter: 1, wantCode: 1},
		{name: "interrupted", cancel: 300 * time.Millisecond, wantCode: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin, pidFile := pidWrapper(t, c.failAfter)
			cfg := smallConfig(t, "sharded_tier")
			cfg.env.serveBin = bin
			cfg.env.tamper = c.tamper
			ctx := context.Background()
			if c.cancel > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				// Cancel once the shards are up and the window has begun.
				go func() {
					for len(readPIDsQuiet(pidFile)) < shardCount {
						time.Sleep(10 * time.Millisecond)
					}
					time.Sleep(c.cancel)
					cancel()
				}()
				defer cancel()
			}
			res, err := runBench(ctx, cfg, io.Discard)
			if code := report(res, err, io.Discard, io.Discard); code != c.wantCode {
				t.Errorf("exit %d, want %d (err %v)", code, c.wantCode, err)
			}
			assertReaped(t, recordedPIDs(t, pidFile))
		})
	}
}

func readPIDsQuiet(file string) []string {
	b, _ := os.ReadFile(file)
	return strings.Fields(string(b))
}
