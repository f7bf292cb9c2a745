package sched

import (
	"fmt"
	"sort"
	"time"

	"accelscore/internal/backend"
)

// Completion records one query's simulated execution.
type Completion struct {
	Query   Query
	Backend string
	Device  Device
	// Start and Finish are simulation times; Latency = Finish - Arrival
	// (queueing + service).
	Start, Finish time.Duration
	Service       time.Duration
}

// Latency is the query's response time including queueing.
func (c Completion) Latency() time.Duration { return c.Finish - c.Query.Arrival }

// Metrics aggregates a simulation run.
type Metrics struct {
	Policy string
	// Makespan is the finish time of the last query.
	Makespan time.Duration
	// MeanLatency, P50, P99 summarize response times.
	MeanLatency, P50, P99 time.Duration
	// Busy maps device -> total service time (utilization numerator).
	Busy map[Device]time.Duration
	// Placements counts queries per backend.
	Placements map[string]int
	// Offloaded counts queries placed off the CPU.
	Offloaded int
}

// Utilization returns Busy[d] / Makespan.
func (m Metrics) Utilization(d Device) float64 {
	if m.Makespan <= 0 {
		return 0
	}
	return float64(m.Busy[d]) / float64(m.Makespan)
}

// Simulator runs a query stream under a policy with per-device FIFO queues:
// each device serves one scoring operation at a time (the FPGA engine and
// the GPU are single-context resources; the CPU engines share the host
// cores, conservatively modeled as one serial resource since the paper's
// CPU numbers already use all 52 threads).
type Simulator struct {
	Registry *backend.Registry
}

// Run simulates the stream (which must be arrival-ordered) under the
// policy.
func (s *Simulator) Run(policy Policy, queries []Query) ([]Completion, Metrics, error) {
	freeAt := map[Device]time.Duration{DeviceCPU: 0, DeviceGPU: 0, DeviceFPGA: 0}
	metrics := Metrics{
		Policy:     policy.Name(),
		Busy:       map[Device]time.Duration{},
		Placements: map[string]int{},
	}
	completions := make([]Completion, 0, len(queries))
	var last time.Duration
	for _, q := range queries {
		if q.Arrival < last {
			return nil, Metrics{}, fmt.Errorf("sched: queries not arrival-ordered at id %d", q.ID)
		}
		last = q.Arrival
		state := ClusterState{Now: q.Arrival, FreeAt: freeAt}
		place, err := policy.Place(q, state)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("sched: placing query %d: %w", q.ID, err)
		}
		b, ok := s.Registry.Get(place.Backend)
		if !ok {
			return nil, Metrics{}, fmt.Errorf("sched: placed on unknown backend %q", place.Backend)
		}
		tl, err := b.Estimate(q.Stats, q.Records)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("sched: query %d unsupported on %s: %w", q.ID, place.Backend, err)
		}
		service := tl.Total()
		dev := DeviceOf(place.Backend)
		start := q.Arrival
		if freeAt[dev] > start {
			start = freeAt[dev]
		}
		finish := start + service
		freeAt[dev] = finish
		completions = append(completions, Completion{
			Query: q, Backend: place.Backend, Device: dev,
			Start: start, Finish: finish, Service: service,
		})
		metrics.Busy[dev] += service
		metrics.Placements[place.Backend]++
		if dev != DeviceCPU {
			metrics.Offloaded++
		}
		if finish > metrics.Makespan {
			metrics.Makespan = finish
		}
	}

	// Latency distribution.
	lat := make([]time.Duration, len(completions))
	for i, c := range completions {
		lat[i] = c.Latency()
	}
	metrics.MeanLatency, metrics.P50, metrics.P99 = LatencySummary(lat)
	return completions, metrics, nil
}

// LatencySummary returns the mean, median and 99th percentile of lats: the
// sorted sample's elements n/2 and (n*99)/100, zeros when lats is empty.
// lats itself is left unsorted.
func LatencySummary(lats []time.Duration) (mean, p50, p99 time.Duration) {
	n := len(lats)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	return sum / time.Duration(n), sorted[n/2], sorted[(n*99)/100]
}

// Compare runs the same stream under several policies and returns metrics
// keyed by policy order.
func (s *Simulator) Compare(queries []Query, policies ...Policy) ([]Metrics, error) {
	out := make([]Metrics, 0, len(policies))
	for _, p := range policies {
		_, m, err := s.Run(p, queries)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", p.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}
