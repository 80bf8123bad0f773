package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ordo/internal/telemetry/span"
)

var httpc = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// promSample is one exposition line: the family name, its label string
// (without braces) and the value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// scrape is one /metrics snapshot.
type scrape []promSample

func scrapeMetrics(admin string) (scrape, error) {
	b, err := httpGet("http://" + admin + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

func parseProm(text string) scrape {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
			s.name, s.labels = series[:i], series[i+1:len(series)-1]
		}
		out = append(out, s)
	}
	return out
}

// sum adds every series of a family.
func (s scrape) sum(name string) float64 {
	var t float64
	for _, p := range s {
		if p.name == name {
			t += p.value
		}
	}
	return t
}

// buckets returns a histogram family's cumulative bucket counts by upper
// bound, summed over its label sets.
func (s scrape) buckets(name string) map[float64]float64 {
	out := map[float64]float64{}
	for _, p := range s {
		if p.name != name+"_bucket" {
			continue
		}
		i := strings.Index(p.labels, `le="`)
		if i < 0 {
			continue
		}
		le := p.labels[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		ub, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		out[ub] += p.value
	}
	return out
}

// histQuantile estimates the q-quantile of the observations a histogram
// family gained between two scrapes, interpolating linearly inside the
// bucket that holds it. Returns 0 when nothing was observed.
func histQuantile(before, after scrape, name string, q float64) float64 {
	a, b := after.buckets(name), before.buckets(name)
	bounds := make([]float64, 0, len(a))
	for ub := range a {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	// before's cumulative count at or below ub: its bucket list may omit
	// empty buckets, so take the largest bound not above ub.
	cumBefore := func(ub float64) float64 {
		best, bestUB := 0.0, -1.0
		for x, c := range b {
			if x <= ub && x > bestUB {
				best, bestUB = c, x
			}
		}
		return best
	}
	delta := make([]float64, len(bounds))
	for i, ub := range bounds {
		delta[i] = a[ub] - cumBefore(ub)
	}
	if len(delta) == 0 || delta[len(delta)-1] <= 0 {
		return 0
	}
	total := delta[len(delta)-1]
	rank := q * total
	lo, prev := 0.0, 0.0
	for i, ub := range bounds {
		if delta[i] >= rank {
			if ub > 1e300 { // +Inf: report the last finite bound
				return lo
			}
			if delta[i] == prev {
				return ub
			}
			return lo + (ub-lo)*(rank-prev)/(delta[i]-prev)
		}
		lo, prev = ub, delta[i]
	}
	return lo
}

// scrapeSpans fetches a node's span ring.
func scrapeSpans(admin string) ([]span.Span, error) {
	b, err := httpGet("http://" + admin + "/spans")
	if err != nil {
		return nil, err
	}
	var d span.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decode /spans: %w", err)
	}
	return d.Spans, nil
}

// stageP50s returns the median duration in µs of each stage over spans,
// 0 for a stage with no span.
func stageP50s(spans []span.Span) map[string]float64 {
	by := map[string][]float64{}
	for _, sp := range spans {
		by[sp.Stage.String()] = append(by[sp.Stage.String()], float64(sp.Dur)/1e3)
	}
	out := map[string]float64{}
	for _, st := range span.StageNames() {
		out[st] = median(by[st])
	}
	return out
}

// ratio is a/b scaled, 0 when b is 0.
func ratio(a, b, scale float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b * scale
}
