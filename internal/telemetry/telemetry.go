// Package telemetry is the serving stack's metrics layer: a small,
// dependency-free registry of counters, gauges, and sharded latency
// histograms, exported in Prometheus text format (v0.0.4), plus a bounded
// ring-buffer event tracer (trace.go).
//
// The design follows the same contention philosophy as the rest of the
// repo: the hot path must never share a cache line with the scrape path.
// Counters are single atomics (cheap enough for per-op increments);
// distributions use one hist.H shard per worker, each guarded by a lock
// only its owner ever contends on, merged under the registry's view only
// when a scrape happens — the Oplog pattern applied to metrics. Gauges are
// pull-only (a func evaluated at scrape), so publishing a gauge costs
// nothing between scrapes.
//
// Counter monotonicity survives worker churn: closing a shard folds its
// counts into the parent histogram's retired accumulator, so a scrape
// after a connection dies never sees a histogram count go backwards.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ordo/internal/hist"
)

// metricKind is the Prometheus TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one exported time series: a collect function plus its rendered
// label set ("" or `op="get"` form, braces not included).
type series struct {
	labels string
	// collect appends the series' sample lines for family name to b.
	collect func(b *strings.Builder, name, labels string)
	// uint reads an integer series' exact value (counters and GaugeUintFunc
	// gauges); nil for float gauges and histograms. Uints reads through it.
	uint func() uint64
}

// uintSeries is the series of an integer-valued counter or gauge.
func uintSeries(fn func() uint64, labels []Label) *series {
	return &series{
		labels: renderLabels(labels),
		collect: func(b *strings.Builder, name, lbl string) {
			sample(b, name, lbl, formatUint(fn()))
		},
		uint: fn,
	}
}

// family groups every series sharing one metric name under a single
// HELP/TYPE block, as the exposition format requires.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds registered metrics and renders them. Registration is
// expected at setup time (it panics on a name reused with a different
// type or help, which is a programming error); scraping is safe at any
// time and never blocks a hot-path writer for longer than one shard merge.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds one series to its family, creating the family on first
// use.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as both %v and %v", name, f.kind, kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Counter registers and returns a counter. Labels (optional) become the
// series' constant label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, uintSeries(c.v.Load, labels))
	return c
}

// CounterFunc registers a counter whose value is pulled from fn at scrape
// time — the bridge for counters that already live elsewhere as atomics.
// fn must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindCounter, uintSeries(fn, labels))
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float gauge (atomic float64 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{
		labels: renderLabels(labels),
		collect: func(b *strings.Builder, name, lbl string) {
			sample(b, name, lbl, formatFloat(g.Value()))
		},
	})
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{
		labels: renderLabels(labels),
		collect: func(b *strings.Builder, name, lbl string) {
			sample(b, name, lbl, formatFloat(fn()))
		},
	})
}

// GaugeUintFunc registers a gauge whose integer value is pulled from fn at
// scrape time. Unlike GaugeFunc the value never passes through float64, so
// Uints reads it exactly (timestamps and byte counts past 2^53 included).
// fn must be safe for concurrent use.
func (r *Registry) GaugeUintFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindGauge, uintSeries(fn, labels))
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a goroutine-safe distribution built from per-worker
// hist.H shards. Workers call NewShard once and Observe on their own
// shard — an uncontended lock each — and the scrape path merges live
// shards with the retired accumulator on demand. Scale divides exported
// bounds and sums (1e9 turns recorded nanoseconds into exported seconds,
// the Prometheus base unit); recorded values stay integral internally so
// hist.H's error bounds hold.
type Histogram struct {
	scale float64

	mu      sync.Mutex
	shards  []*HistShard
	retired hist.H

	// Exemplar state: the trace ID of the largest-valued observation that
	// carried one, so a scrape can jump from a latency spike straight to
	// its distributed trace. Guarded by its own lock — the exemplar update
	// is off the shard's uncontended fast path unless a trace rides along.
	exMu    sync.Mutex
	exVal   uint64
	exTrace uint64
}

// Histogram registers and returns a sharded histogram. scale ≤ 0 means 1
// (export raw recorded values).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	if scale <= 0 {
		scale = 1
	}
	h := &Histogram{scale: scale}
	r.register(name, help, kindHistogram, &series{
		labels: renderLabels(labels),
		collect: func(b *strings.Builder, name, lbl string) {
			h.collect(b, name, lbl)
		},
	})
	return h
}

// HistShard is one worker's private recording buffer. Not for sharing:
// each recording goroutine takes its own and Closes it at teardown so the
// counts retire into the parent.
type HistShard struct {
	parent *Histogram
	mu     sync.Mutex
	h      hist.H
	closed bool
}

// NewShard registers a fresh shard for one worker.
func (h *Histogram) NewShard() *HistShard {
	s := &HistShard{parent: h}
	h.mu.Lock()
	h.shards = append(h.shards, s)
	h.mu.Unlock()
	return s
}

// Observe records one value into the worker's shard.
func (s *HistShard) Observe(v uint64) {
	s.mu.Lock()
	s.h.Record(v)
	s.mu.Unlock()
}

// ObserveDuration records one duration in nanoseconds.
func (s *HistShard) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.Observe(uint64(d))
}

// ObserveExemplar records one value and, when trace is nonzero, offers it
// as the family's exemplar: the largest-valued traced observation wins, so
// the exported exemplar points at the worst traced request seen.
func (s *HistShard) ObserveExemplar(v uint64, trace uint64) {
	s.Observe(v)
	if trace == 0 {
		return
	}
	p := s.parent
	p.exMu.Lock()
	if p.exTrace == 0 || v >= p.exVal {
		p.exVal, p.exTrace = v, trace
	}
	p.exMu.Unlock()
}

// Exemplar returns the current exemplar observation and its trace ID;
// trace is 0 when no traced observation has been recorded.
func (h *Histogram) Exemplar() (v uint64, trace uint64) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exVal, h.exTrace
}

// Close retires the shard: its counts merge into the parent's retired
// accumulator (so scraped totals stay monotonic across worker churn) and
// the shard drops out of the live set. Close is idempotent; Observe after
// Close still works but records into an orphan the scraper no longer sees
// — callers must stop observing first.
func (s *HistShard) Close() {
	p := s.parent
	p.mu.Lock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		p.retired.Merge(&s.h)
		for i, live := range p.shards {
			if live == s {
				p.shards = append(p.shards[:i], p.shards[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	p.mu.Unlock()
}

// Merged returns the histogram's current total view: retired counts plus
// every live shard. The copy is independent of later observations.
func (h *Histogram) Merged() *hist.H {
	h.mu.Lock()
	out := h.retired.Snapshot()
	for _, s := range h.shards {
		s.mu.Lock()
		out.Merge(&s.h)
		s.mu.Unlock()
	}
	h.mu.Unlock()
	return out
}

// Quantile returns the q-quantile of every observation so far, 0 before
// the first.
func (h *Histogram) Quantile(q float64) uint64 {
	m := h.Merged()
	if m.Count() == 0 {
		return 0
	}
	return m.Quantile(q)
}

// collect renders the cumulative _bucket/_sum/_count series.
func (h *Histogram) collect(b *strings.Builder, name, labels string) {
	m := h.Merged()
	for _, bk := range m.Buckets() {
		le := formatFloat(float64(bk.UpperBound) / h.scale)
		sample(b, name+"_bucket", joinLabels(labels, `le="`+le+`"`), formatUint(bk.CumCount))
	}
	sample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), formatUint(m.Count()))
	sample(b, name+"_sum", labels, formatFloat(float64(m.Sum())/h.scale))
	sample(b, name+"_count", labels, formatUint(m.Count()))
	// Exemplar as a comment line: the text exposition format has no
	// exemplar syntax, and parsers ignore non-HELP/TYPE comments, so this
	// is both human-greppable and harmless to scrapers.
	if ev, et := h.Exemplar(); et != 0 {
		b.WriteString("# EXEMPLAR ")
		b.WriteString(name)
		if labels != "" {
			b.WriteByte('{')
			b.WriteString(labels)
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatFloat(float64(ev) / h.scale))
		b.WriteString(` trace_id="`)
		b.WriteString(fmt.Sprintf("%016x", et))
		b.WriteString("\"\n")
	}
}

// Label is one constant name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// renderLabels renders a label set in sorted-name order, values escaped
// per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// joinLabels concatenates two rendered label fragments.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// sample emits one exposition line: name{labels} value.
func sample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// WritePrometheus renders every registered family in text exposition
// format v0.0.4: a HELP and TYPE line per family, then its series in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the family list under the lock, then collect without it:
	// collect functions take shard and caller locks of their own, and
	// registration during a scrape only affects the next scrape.
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			s.collect(&b, f.name, s.labels)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sample is one integer series' value. Series is the name a /metrics line
// starts with: the family name, plus its label set in braces when it has
// one (`ordod_ops_total{op="get"}`).
type Sample struct {
	Series string
	Value  uint64
}

// Uints reads every integer series (counters and GaugeUintFunc gauges) of
// the families whose name starts with prefix, in registration order, each
// exactly as /metrics renders it. Float gauges and histograms are skipped.
// The value funcs run under the registry lock, so they must not register.
func (r *Registry) Uints(prefix string) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.families {
		if !strings.HasPrefix(f.name, prefix) {
			continue
		}
		for _, s := range f.series {
			if s.uint == nil {
				continue
			}
			name := f.name
			if s.labels != "" {
				name += "{" + s.labels + "}"
			}
			out = append(out, Sample{Series: name, Value: s.uint()})
		}
	}
	return out
}

// ContentType is the HTTP Content-Type of WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
