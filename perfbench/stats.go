package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"ordo/internal/hist"
)

// interval is the width of one measurement slice. End-to-end rates are
// the median over slices, so one slice slowed by a noisy neighbour does
// not move the result.
const interval = time.Second

// recorder collects one connection's (or worker's) completions inside the
// measured window, per interval.
type recorder struct {
	start, end time.Time
	ops        []uint64 // completions per interval
	lat        hist.H   // latencies (ns) of the window's completions
}

func newRecorder(start time.Time, seconds int) *recorder {
	return &recorder{
		start: start,
		end:   start.Add(time.Duration(seconds) * interval),
		ops:   make([]uint64, seconds),
	}
}

// add records a completion at time now that took d. Completions outside
// the measured window are ignored.
func (r *recorder) add(now time.Time, d time.Duration) {
	if now.Before(r.start) || !now.Before(r.end) {
		return
	}
	i := int(now.Sub(r.start) / interval)
	r.ops[i]++
	r.lat.RecordDuration(d)
}

// merged sums recorders of the same window.
func merged(rs []*recorder) *recorder {
	out := newRecorder(rs[0].start, len(rs[0].ops))
	for _, r := range rs {
		for i := range r.ops {
			out.ops[i] += r.ops[i]
		}
		out.lat.Merge(&r.lat)
	}
	return out
}

func (r *recorder) total() uint64 {
	var n uint64
	for _, v := range r.ops {
		n += v
	}
	return n
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuSampler reads the CPU time of the program's processes at every
// interval boundary of the measured window.
type cpuSampler struct {
	read    func() (float64, error)
	samples []float64 // cumulative CPU seconds at start+i·interval
	err     error
	done    chan struct{}
}

// sampleCPU starts sampling at start and stops after seconds intervals.
func sampleCPU(start time.Time, seconds int, read func() (float64, error)) *cpuSampler {
	s := &cpuSampler{read: read, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for i := 0; i <= seconds; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			v, err := read()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
		}
	}()
	return s
}

// e2e derives the end-to-end metrics from a measured window: the medians
// over intervals of throughput and CPU per op, and the p50 over all
// samples.
type e2e struct {
	throughput float64
	p50us      float64
	p99us      float64
	samples    int
	cpuUSPerOp float64
	ops        uint64
}

func summarize(r *recorder, cpu *cpuSampler) (e2e, error) {
	<-cpu.done
	if cpu.err != nil {
		return e2e{}, cpu.err
	}
	var tput, cpuPer []float64
	for i, n := range r.ops {
		tput = append(tput, float64(n)/interval.Seconds())
		if n > 0 && i+1 < len(cpu.samples) {
			cpuPer = append(cpuPer, (cpu.samples[i+1]-cpu.samples[i])*1e6/float64(n))
		}
	}
	// Printed before median() reorders them.
	fmt.Fprintf(os.Stderr, "perfbench: per-interval ops/s %.0f, cpu us/op %.2f\n", tput, cpuPer)
	return e2e{
		throughput: median(tput),
		p50us:      float64(r.lat.Quantile(0.50)) / 1e3,
		p99us:      float64(r.lat.Quantile(0.99)) / 1e3,
		samples:    int(r.lat.Count()),
		cpuUSPerOp: median(cpuPer),
		ops:        r.total(),
	}, nil
}
