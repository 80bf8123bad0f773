package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition is a strict-enough text-format parser for tests: it
// checks HELP/TYPE ordering, sample line shape, and returns samples as
// name{labels} → value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	var lastFamily string
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			lastFamily = parts[0]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if parts[0] != lastFamily {
				t.Fatalf("line %d: TYPE %s does not follow its HELP (%s)", i+1, parts[0], lastFamily)
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("line %d: family %s typed twice", i+1, parts[0])
			}
			typed[parts[0]] = parts[1]
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			key, valStr := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, valStr, err)
			}
			name := key
			if b := strings.IndexByte(key, '{'); b >= 0 {
				if !strings.HasSuffix(key, "}") {
					t.Fatalf("line %d: unterminated labels: %q", i+1, line)
				}
				name = key[:b]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if _, ok := typed[base]; !ok {
				if _, ok := typed[name]; !ok {
					t.Fatalf("line %d: sample %s has no TYPE", i+1, name)
				}
			}
			if _, dup := samples[key]; dup {
				t.Fatalf("line %d: duplicate sample %s", i+1, key)
			}
			samples[key] = v
		}
	}
	return samples
}

func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, b.String())
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops served", L("op", "get"))
	c2 := r.Counter("test_ops_total", "ops served", L("op", "put"))
	r.CounterFunc("test_pull_total", "pulled counter", func() uint64 { return 42 })
	g := r.Gauge("test_depth", "queue depth")
	r.GaugeFunc("test_boundary_ns", "boundary", func() float64 { return 212.5 })

	c.Add(3)
	c2.Inc()
	g.Set(-7.5)

	s := scrape(t, r)
	for key, want := range map[string]float64{
		`test_ops_total{op="get"}`: 3,
		`test_ops_total{op="put"}`: 1,
		"test_pull_total":          42,
		"test_depth":               -7.5,
		"test_boundary_ns":         212.5,
	} {
		if got := s[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestUints checks the integer-series read: counters and GaugeUintFunc
// gauges only, prefix-filtered, in registration order, with exact values
// that /metrics renders identically.
func TestUints(t *testing.T) {
	r := NewRegistry()
	big := uint64(1<<63 + 1) // past float64's exact range
	c := r.Counter("app_ops_total", "ops", L("op", "get"))
	r.GaugeFunc("app_rate", "a float gauge", func() float64 { return 0.5 })
	r.GaugeUintFunc("app_ts", "an integer gauge", func() uint64 { return big })
	r.Histogram("app_latency_seconds", "a histogram", 1e9).NewShard().Observe(5)
	r.CounterFunc("other_total", "outside the prefix", func() uint64 { return 1 })
	c.Add(2)

	got := r.Uints("app_")
	want := []Sample{{`app_ops_total{op="get"}`, 2}, {"app_ts", big}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Uints = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, s := range want {
		if line := s.Series + " " + strconv.FormatUint(s.Value, 10) + "\n"; !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "op latency", 1e9, L("op", "get"))
	sh := h.NewShard()
	for _, ns := range []uint64{1000, 1000, 2_000_000, 3_000_000_000} {
		sh.Observe(ns)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	s := parseExposition(t, text)

	if got := s[`test_latency_seconds_count{op="get"}`]; got != 4 {
		t.Fatalf("count = %v, want 4", got)
	}
	wantSum := (1000.0 + 1000 + 2e6 + 3e9) / 1e9
	if got := s[`test_latency_seconds_sum{op="get"}`]; got < wantSum*0.999 || got > wantSum*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, wantSum)
	}

	// Bucket series: cumulative, le ascending, +Inf last and equal to count.
	type bk struct {
		le  float64
		cum float64
	}
	var bks []bk
	inf := -1.0
	for key, v := range s {
		if !strings.HasPrefix(key, "test_latency_seconds_bucket{") {
			continue
		}
		leStr := key[strings.Index(key, `le="`)+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		if leStr == "+Inf" {
			inf = v
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", leStr, err)
		}
		bks = append(bks, bk{le, v})
	}
	if inf != 4 {
		t.Fatalf("+Inf bucket = %v, want 4", inf)
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
	prev := 0.0
	for _, b := range bks {
		if b.cum < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v", b.cum, prev)
		}
		prev = b.cum
	}
	if prev != 4 {
		t.Fatalf("last finite bucket = %v, want 4 (max value must be covered)", prev)
	}
	// The two 1µs samples must be counted at or below a ~1µs bound.
	found := false
	for _, b := range bks {
		if b.le <= 2e-6 && b.cum >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("1µs samples not visible in low buckets: %v", bks)
	}
}

// TestShardRetirement checks counter monotonicity across worker churn:
// counts recorded by a shard survive its Close.
func TestShardRetirement(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_churn_seconds", "latency", 1e9)
	for i := 0; i < 10; i++ {
		sh := h.NewShard()
		sh.Observe(uint64(i + 1))
		sh.Close()
		sh.Close() // idempotent
	}
	live := h.NewShard()
	live.Observe(100)
	m := h.Merged()
	if m.Count() != 11 {
		t.Fatalf("merged count %d, want 11 (retired counts lost?)", m.Count())
	}
	s := scrape(t, r)
	if got := s["test_churn_seconds_count"]; got != 11 {
		t.Fatalf("scraped count %v, want 11", got)
	}
}

// TestScrapeUnderConcurrentObserve hammers shards from many goroutines
// while scraping; run under -race this is the contention-correctness test
// for the merge-at-scrape design.
func TestScrapeUnderConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "latency", 1e9)
	c := r.Counter("test_conc_total", "ops")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sh := h.NewShard()
				for j := 0; j < 100; j++ {
					sh.Observe(uint64(w*1000 + j))
					c.Inc()
				}
				sh.Close()
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var last float64
	for time.Now().Before(deadline) {
		s := scrape(t, r)
		cnt := s["test_conc_seconds_count"]
		if cnt < last {
			t.Fatalf("histogram count went backwards: %v after %v", cnt, last)
		}
		last = cnt
	}
	close(stop)
	wg.Wait()
	final := scrape(t, r)
	if got, want := final["test_conc_seconds_count"], final["test_conc_total"]; got != want {
		t.Fatalf("final histogram count %v != counter %v", got, want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	for name, f := range map[string]func(){
		"same series":   func() { r.Counter("dup_total", "x") },
		"kind mismatch": func() { r.Gauge("dup_total", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	// Same family, fresh labels: allowed.
	r.Counter("dup_total", "x", L("op", "get"))
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record("slow_op", fmt.Sprintf("op %d", i), time.Duration(i)*time.Millisecond)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("op %d", 6+i); ev.Detail != want {
			t.Fatalf("event %d = %q, want %q (oldest-first, newest kept)", i, ev.Detail, want)
		}
	}
	buf, err := tr.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	dump := string(buf)
	for _, want := range []string{`"total_events": 10`, `"dropped_events": 6`, `"slow_op"`, `"op 9"`} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}

	// A nil tracer records nothing and dumps an empty document.
	var nilTr *Tracer
	nilTr.Record("x", "y", 0)
	if evs := nilTr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if _, err := nilTr.DumpJSON(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(100)
	tr.Record("eviction", "idle", 0)
	tr.Record("panic", "boom", 0)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != "eviction" || evs[1].Kind != "panic" {
		t.Fatalf("partial ring: %+v", evs)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "with \"quotes\" and \\slashes\\\nnewline",
		func() uint64 { return 1 }, L("k", "a\"b\\c\nd"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `k="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", text)
	}
	// HELP must escape the newline: a raw newline there would corrupt the
	// line-oriented format.
	if strings.Contains(text, "\nnewline") {
		t.Fatalf("HELP newline not escaped:\n%s", text)
	}
}
