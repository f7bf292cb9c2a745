package main

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared host. When other
// tenants are busy, the hypervisor takes the CPUs away for milliseconds at
// a time; the guest counts that time as steal in /proc/stat. On a 2-vCPU
// VM, steal rose and fell in bursts of 10-20 s, took up to 40% of the
// CPU the benchmark wanted, and raised a 6 ms median latency past 30 ms.
// Steal comes from outside the program, so latency metrics are
// taken over the window's quiet seconds: one-second segments whose steal
// share is under quietFloor or at most the first quartile of the window's
// shares, so that a burst covering most of the window is still left out.

// hostTimes are the VM-wide CPU counters, in USER_HZ ticks.
type hostTimes struct {
	busy, steal int64
}

// readHostTimes parses the aggregate cpu line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal. Kernels that report no steal
// field read as steal 0.
func readHostTimes() (hostTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return hostTimes{}, errors.New("malformed /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if i+1 >= len(f) {
			break
		}
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTimes{}, errors.New("malformed /proc/stat")
		}
	}
	return hostTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// segment is one stretch of the window with the host's steal share in it.
type segment struct {
	from, to time.Time
	share    float64 // steal / (busy + steal); 0 when the VM was idle
}

// stealSampler reads /proc/stat once per period until finish.
type stealSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	at   []time.Time
	ts   []hostTimes
	err  error
}

func sampleSteal(period time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		h, err := readHostTimes()
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.err = err
			return
		}
		s.at = append(s.at, time.Now())
		s.ts = append(s.ts, h)
	}
	sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
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

// finish stops sampling and returns the segments between samples.
func (s *stealSampler) finish() ([]segment, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	var segs []segment
	for i := 1; i < len(s.at); i++ {
		busy := s.ts[i].busy - s.ts[i-1].busy
		steal := s.ts[i].steal - s.ts[i-1].steal
		segs = append(segs, segment{from: s.at[i-1], to: s.at[i],
			share: ratio(float64(steal), float64(busy+steal))})
	}
	return segs, s.err
}

// quietFloor is the steal share below which a second always counts as
// quiet: a host that steals a tick or two now and then keeps the whole
// window, so the tail percentiles see every garbage-collection pause.
const quietFloor = 0.02

// quiet returns the segments whose steal share is at most the first
// quartile of the shares or quietFloor: at least a quarter of them on a
// busy host, all of them on a quiet one.
func quiet(segs []segment) []segment {
	shares := make([]float64, len(segs))
	for i, s := range segs {
		shares[i] = s.share
	}
	limit := max(quantile(shares, 0.25), quietFloor)
	var out []segment
	for _, s := range segs {
		if s.share <= limit {
			out = append(out, s)
		}
	}
	return out
}

// inSegments reports whether t falls inside one of segs, which are in time order.
func inSegments(segs []segment, t time.Time) bool {
	i := sort.Search(len(segs), func(i int) bool { return !segs[i].to.Before(t) })
	return i < len(segs) && !t.Before(segs[i].from)
}

// stealShare is the steal share over all of segs together.
func stealShare(segs []segment) float64 {
	var w, s float64
	for _, g := range segs {
		d := g.to.Sub(g.from).Seconds()
		w += d
		s += d * g.share
	}
	return ratio(s, w)
}
