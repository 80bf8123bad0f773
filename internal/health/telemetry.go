package health

import (
	"fmt"

	"ordo/internal/core"
	"ordo/internal/telemetry"
)

// Telemetry registers the monitor's clock-health series on reg and routes
// recalibration passes and clock anomalies to tracer (which may be nil).
// Every value is pulled at scrape time from the same state Snapshot reads,
// so the series and the JSON snapshot can never disagree. Call it once per
// registry; a second call panics on duplicate series, matching the
// registry's registration contract.
func (m *Monitor) Telemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	m.mu.Lock()
	m.tracer = tracer
	m.mu.Unlock()

	RegisterBoundary(reg, m.o, m.tickHz)
	reg.GaugeFunc("ordo_drift_ppm", "Invariant counter frequency deviation vs the OS clock, parts per million.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.driftPPM
		})
	reg.GaugeFunc("ordo_uncertain_rate", "Fraction of timestamp comparisons falling inside the uncertainty window.",
		func() float64 {
			before, unc, after := m.stats.CmpCounts()
			if total := before + unc + after; total > 0 {
				return float64(unc) / float64(total)
			}
			return 0
		})
	reg.CounterFunc("ordo_calibration_passes_total", "Boundary recalibration passes run.",
		func() uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.passes
		})
	reg.CounterFunc("ordo_boundary_widenings_total", "Passes that published a new boundary.",
		func() uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.widenings
		})
	reg.CounterFunc("ordo_clock_anomalies_total", "Drift cross-checks that exceeded the threshold.",
		func() uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.anomalies
		})
	reg.CounterFunc("ordo_cmp_uncertain_total", "Timestamp comparisons answered uncertain.",
		func() uint64 {
			_, unc, _ := m.stats.CmpCounts()
			return unc
		})
}

// RegisterBoundary registers o's ORDO_BOUNDARY gauges on reg; hz reports
// the invariant counter's frequency (0 while unknown). Monitor.Telemetry
// calls it, and so does a server that runs an Ordo clock without a monitor.
func RegisterBoundary(reg *telemetry.Registry, o *core.Ordo, hz func() uint64) {
	reg.GaugeFunc("ordo_boundary_ns", "Current ORDO_BOUNDARY in nanoseconds.",
		func() float64 {
			if f := hz(); f != 0 {
				return float64(o.Boundary()) / float64(f) * 1e9
			}
			return 0
		})
	reg.GaugeFunc("ordo_boundary_ticks", "Current ORDO_BOUNDARY in invariant-counter ticks.",
		func() float64 { return float64(o.Boundary()) })
}

// traceRecalibration emits one pass into the tracer. Called with m.mu held.
func (m *Monitor) traceRecalibration(p Pass) {
	if m.tracer == nil {
		return
	}
	detail := fmt.Sprintf("boundary=%d ticks applied=%v pairs=%d", p.Boundary, p.Applied, p.Pairs)
	if p.Err != "" {
		detail = "err: " + p.Err
	}
	m.tracer.Record("clock_recalibration", detail, p.Duration)
}
