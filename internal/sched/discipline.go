package sched

import (
	"fmt"
	"sort"
	"time"

	"accelscore/internal/backend"
)

// Discipline selects the per-device queue ordering.
type Discipline int

const (
	// FIFO serves queued work in arrival order (the default Simulator).
	FIFO Discipline = iota
	// SJF (shortest job first) lets a device pick the shortest queued
	// request when it frees up — the classic mean-latency optimization for
	// the heavy-tailed batch sizes of analytics workloads. Non-preemptive.
	SJF
)

// String returns the discipline name.
func (d Discipline) String() string {
	if d == SJF {
		return "sjf"
	}
	return "fifo"
}

// DisciplinedSimulator extends Simulator with a queue discipline. FIFO
// reproduces Simulator exactly; SJF reorders each device's backlog by
// service time whenever the device becomes free.
type DisciplinedSimulator struct {
	Registry   *backend.Registry
	Discipline Discipline
}

// queued is one placed-but-not-started request.
type queued struct {
	q       Query
	backend string
	service time.Duration
}

// Run simulates the arrival-ordered stream under the policy and the
// configured discipline.
func (s *DisciplinedSimulator) Run(policy Policy, queries []Query) ([]Completion, Metrics, error) {
	if s.Discipline == FIFO {
		inner := &Simulator{Registry: s.Registry}
		return inner.Run(policy, queries)
	}

	// Place every query first (placement still sees arrival-time queue
	// state approximated by FIFO accumulation, keeping policies comparable
	// across disciplines).
	freeApprox := map[Device]time.Duration{DeviceCPU: 0, DeviceGPU: 0, DeviceFPGA: 0}
	backlog := map[Device][]queued{}
	var last time.Duration
	for _, q := range queries {
		if q.Arrival < last {
			return nil, Metrics{}, fmt.Errorf("sched: queries not arrival-ordered at id %d", q.ID)
		}
		last = q.Arrival
		place, err := policy.Place(q, ClusterState{Now: q.Arrival, FreeAt: freeApprox})
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
		dev := DeviceOf(place.Backend)
		backlog[dev] = append(backlog[dev], queued{q: q, backend: place.Backend, service: tl.Total()})
		if freeApprox[dev] < q.Arrival {
			freeApprox[dev] = q.Arrival
		}
		freeApprox[dev] += tl.Total()
	}

	// Per device, replay with SJF: at each dispatch instant serve the
	// shortest request among those that have arrived.
	metrics := Metrics{
		Policy:     policy.Name() + "+sjf",
		Busy:       map[Device]time.Duration{},
		Placements: map[string]int{},
	}
	var completions []Completion
	for dev, items := range backlog {
		// Arrival order within the device.
		sort.SliceStable(items, func(i, j int) bool { return items[i].q.Arrival < items[j].q.Arrival })
		var clock time.Duration
		pending := make([]queued, 0, len(items))
		next := 0
		for len(pending) > 0 || next < len(items) {
			// Admit everything that has arrived by the clock.
			for next < len(items) && items[next].q.Arrival <= clock {
				pending = append(pending, items[next])
				next++
			}
			if len(pending) == 0 {
				clock = items[next].q.Arrival
				continue
			}
			// Pick the shortest pending job.
			best := 0
			for i := 1; i < len(pending); i++ {
				if pending[i].service < pending[best].service {
					best = i
				}
			}
			job := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			start := clock
			if job.q.Arrival > start {
				start = job.q.Arrival
			}
			finish := start + job.service
			clock = finish
			completions = append(completions, Completion{
				Query: job.q, Backend: job.backend, Device: dev,
				Start: start, Finish: finish, Service: job.service,
			})
			metrics.Busy[dev] += job.service
			metrics.Placements[job.backend]++
			if dev != DeviceCPU {
				metrics.Offloaded++
			}
			if finish > metrics.Makespan {
				metrics.Makespan = finish
			}
		}
	}
	sort.SliceStable(completions, func(i, j int) bool { return completions[i].Query.ID < completions[j].Query.ID })

	lat := make([]time.Duration, len(completions))
	for i, c := range completions {
		lat[i] = c.Latency()
	}
	metrics.MeanLatency, metrics.P50, metrics.P99 = LatencySummary(lat)
	return completions, metrics, nil
}
