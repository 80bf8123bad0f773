package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"ordo/internal/wire"
)

// TestCatalogueAgreement checks the one-catalogue rule end to end: after a
// durable two-lane server has served puts, gets and a cross-lane TXN, every
// ordod_* integer series reads the same value on /metrics, /varz, the drain
// document and STATS, and all four carry the same set of series.
func TestCatalogueAgreement(t *testing.T) {
	cfg, dev := durableConfig(t, t.TempDir())
	defer dev.Close()
	cfg.Shards = 2
	cfg.Telemetry = NewTelemetry(nil, nil, 0)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	c := dialServer(t, ln.Addr().String())
	base, closeAdmin := startAdmin(t, srv)
	defer closeAdmin()

	keys := shapeKeys(srv, "cross-lane-txn", 1, 4) // alternating lanes
	for _, req := range []wire.Request{
		{Op: wire.OpInsert, Key: keys[0], Vals: row(1)},
		{Op: wire.OpInsert, Key: keys[1], Vals: row(2)},
		{Op: wire.OpPut, Key: keys[0], Vals: row(3)},
		{Op: wire.OpGet, Key: keys[1]},
		{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpPut, Key: keys[0], Vals: row(4)},
			{Op: wire.OpInsert, Key: keys[3], Vals: row(5)},
		}},
		{Op: wire.OpTxn, Ops: []wire.Request{{Op: wire.OpGet, Key: keys[0]}, {Op: wire.OpGet, Key: keys[3]}}},
	} {
		if r, err := c.Do(&req); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("%v: %v %v", req.Op, r.Status, err)
		}
	}
	r, err := c.Do(&wire.Request{Op: wire.OpStats})
	if err != nil || r.Stats == nil {
		t.Fatalf("stats: %+v %v", r, err)
	}
	if r.Stats.Protocol != "OCC" {
		t.Fatalf("STATS protocol %q", r.Stats.Protocol)
	}
	stats := map[string]uint64{}
	for _, p := range r.Stats.Pairs {
		stats[p.Name] = p.Value
	}
	// The asking connection is open while STATS reads; nothing else is.
	if stats["ordod_conns_active"] != 1 {
		t.Fatalf("STATS conns_active=%d, want 1 (the asking connection)", stats["ordod_conns_active"])
	}
	stats["ordod_conns_active"] = 0
	if stats["ordod_cross_shard_txns_total"] == 0 || stats["ordod_wal_records_total"] == 0 {
		t.Fatalf("load did not cross lanes durably: %v", stats)
	}
	// The cross-lane read took its first pass; the fallback series is in the
	// catalogue all the same, at zero.
	if n, ok := stats["ordod_cross_shard_parked_reads_total"]; !ok || n != 0 {
		t.Fatalf("STATS ordod_cross_shard_parked_reads_total = %d (present %v), want 0", n, ok)
	}
	c.CloseConn()
	waitFor(t, "connection teardown", func() bool { return counters(srv)["ordod_conns_active"] == 0 })

	views := map[string]map[string]uint64{"STATS": stats}
	_, body := adminGet(t, base, "/metrics")
	views["/metrics"] = promIntegers(t, body)
	_, body = adminGet(t, base, "/varz")
	views["/varz"] = varzIntegers(t, []byte(body))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	drain, err := json.Marshal(srv.Varz())
	if err != nil {
		t.Fatal(err)
	}
	views["drain"] = varzIntegers(t, drain)

	for name, view := range views {
		if len(view) != len(stats) {
			t.Errorf("%s carries %d series, STATS %d", name, len(view), len(stats))
		}
		for series, want := range stats {
			if got, ok := view[series]; !ok || got != want {
				t.Errorf("%s %s = %d (present %v), STATS says %d", name, series, got, ok, want)
			}
		}
	}
}

// promIntegers parses the ordod_* counter and gauge samples of a /metrics
// body, requiring each value to be an exact integer; histogram families
// are skipped.
func promIntegers(t *testing.T, body string) map[string]uint64 {
	t.Helper()
	hist := map[string]bool{}
	out := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "histogram" {
			hist[f[2]] = true
		}
		if !strings.HasPrefix(line, "ordod_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
		}
		if hist[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")] {
			continue
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("/metrics %q is not an exact integer: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// varzIntegers decodes a /varz-shaped document's series, leaving out its
// protocol and clock-health entries.
func varzIntegers(t *testing.T, doc []byte) map[string]uint64 {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("varz document: %v\n%s", err, doc)
	}
	if raw["protocol"] != "OCC" {
		t.Fatalf("varz protocol %v", raw["protocol"])
	}
	out := map[string]uint64{}
	for k, v := range raw {
		if k == "protocol" || k == "clock_health" {
			continue
		}
		n, ok := v.(json.Number)
		if !ok {
			t.Fatalf("varz %s = %v, not a number", k, v)
		}
		u, err := strconv.ParseUint(n.String(), 10, 64)
		if err != nil {
			t.Fatalf("varz %s = %v: %v", k, v, err)
		}
		out[k] = u
	}
	return out
}
