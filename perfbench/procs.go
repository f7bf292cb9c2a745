package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// Fields 14 and 15 of stat (utime, stime) are 12 and 13 after ')'.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procRSS returns a process's resident set size in bytes from /proc.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// cpuOf sums the CPU time of pids.
func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, p := range pids {
		c, err := procCPU(p)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// rssSampler tracks the peak of the summed RSS of a set of processes.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
	err  error
}

// sampleRSS samples every period until stop is called.
func sampleRSS(pids []int, period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var sum int64
		for _, p := range pids {
			r, err := procRSS(p)
			if err != nil {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
				return
			}
			sum += r
		}
		s.mu.Lock()
		s.peak = max(s.peak, sum)
		s.mu.Unlock()
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		sample()
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in bytes.
func (s *rssSampler) finish() (int64, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, s.err
}

// shardProc is one cmd/serve process the benchmark started.
type shardProc struct {
	cmd  *exec.Cmd
	url  string
	once sync.Once
	// exited closes when the process has been reaped.
	exited chan struct{}
}

// startShard runs the serve binary as a scale-out shard on a free loopback
// port and waits for /healthz. The process dies with the benchmark
// (Pdeathsig) even if the benchmark itself is killed.
func startShard(ctx context.Context, bin string, id, records int) (*shardProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-shard-id", fmt.Sprintf("shard-%d", id),
		"-demo-records", strconv.Itoa(records),
		"-workers", "1",
		"-coalesce", "0",
		"-pace-scale", "0")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shard %d: %w", id, err)
	}
	p := &shardProc{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("shard %d exited during start-up", id)
		case <-ctx.Done():
			p.kill()
			return nil, fmt.Errorf("starting shard %d: %w", id, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("shard %d on %s never became healthy", id, addr)
		}
	}
}

func (p *shardProc) pid() int { return p.cmd.Process.Pid }

// kill stops the shard and waits until it is reaped; safe to call more
// than once.
func (p *shardProc) kill() {
	p.once.Do(func() { p.cmd.Process.Kill() })
	<-p.exited
}
