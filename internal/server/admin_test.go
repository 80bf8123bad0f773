package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/telemetry"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// startAdmin boots an admin listener over srv on a loopback port and
// returns its base URL plus a close func.
func startAdmin(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	a, err := ServeAdmin("127.0.0.1:0", NewAdminHandler(srv))
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + a.Addr().String(), func() {
		if err := a.Close(); err != nil {
			t.Errorf("admin close: %v", err)
		}
	}
}

// adminGet fetches one admin path and returns status code and body.
func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminHealthz drives the /healthz contract: 200 with a well-formed
// JSON body while serving, then 503 with wal_degraded and the unacked
// write counted after the WAL device dies. The goroutine-leak guard wraps
// the whole lifecycle, admin listener included.
func TestAdminHealthz(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := &wal.FailingDevice{Inner: &wal.MemDevice{}, OK: 1}
	tel := NewTelemetry(nil, telemetry.NewTracer(64), 0)
	cfg := Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(fd, nil), Telemetry: tel}
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	base, closeAdmin := startAdmin(t, ts.srv)
	defer closeAdmin()

	code, body := adminGet(t, base, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz while serving: %d, want 200\n%s", code, body)
	}
	var h healthzBody
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.WALDegraded || h.WALUnackedWrites != 0 {
		t.Fatalf("healthy body: %+v", h)
	}

	// First write rides the device's one good flush; the second commits in
	// memory but can never become durable — the sticky failure degrades the
	// server to reads-only.
	if r, err := ts.c.Do(&wire.Request{Op: wire.OpInsert, Key: 1, Vals: row(1)}); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("first insert: %v %v", r.Status, err)
	}
	if r, err := ts.c.Do(&wire.Request{Op: wire.OpInsert, Key: 2, Vals: row(2)}); err != nil || r.Status != wire.StatusErr {
		t.Fatalf("insert on failed device: %v %v, want ERR", r.Status, err)
	}

	code, body = adminGet(t, base, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz degraded: %d, want 503\n%s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz degraded body: %v\n%s", err, body)
	}
	if h.Status != "degraded" || !h.WALDegraded || h.WALUnackedWrites != 1 {
		t.Fatalf("degraded body: %+v, want status=degraded wal_degraded=true wal_unacked_writes=1", h)
	}

	// The scrape mirrors the degradation and the device-error trace exists.
	if _, body = adminGet(t, base, "/metrics"); !strings.Contains(body, "ordod_degraded 1") {
		t.Fatalf("/metrics missing ordod_degraded 1 after device failure")
	}
	if _, body = adminGet(t, base, "/trace"); !strings.Contains(body, "wal_device_error") {
		t.Fatalf("/trace missing wal_device_error event:\n%s", body)
	}
}

// TestAdminEndpointsUnderLoad is the scrape-vs-serving race test: pipelined
// clients hammer the engine while scrapers pull /metrics, /varz, and
// /trace. Run under -race this proves the scrape path takes consistent
// snapshots of the sharded histograms and atomic counters; the content
// checks prove the exposition carries the op-latency histograms with the
// counts the load actually produced.
func TestAdminEndpointsUnderLoad(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	tel := NewTelemetry(nil, telemetry.NewTracer(256), 0)
	cfg := newYCSBServer(t, db.OCC)
	cfg.Telemetry = tel
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	base, closeAdmin := startAdmin(t, ts.srv)
	defer closeAdmin()

	const (
		clients = 4
		opsPer  = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dialServer(t, ts.addr)
			defer c.CloseConn()
			for i := 0; i < opsPer; i++ {
				key := uint64(w*opsPer + i)
				if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: key, Vals: row(i)}); err != nil {
					t.Errorf("client %d: write: %v", w, err)
					return
				}
				if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: key}); err != nil {
					t.Errorf("client %d: write: %v", w, err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Errorf("client %d: flush: %v", w, err)
				return
			}
			for i := 0; i < 2*opsPer; i++ {
				if _, err := c.ReadResponse(); err != nil {
					t.Errorf("client %d: read %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	// Scrapers race the load; every response must be complete and parseable.
	stop := make(chan struct{})
	var sg sync.WaitGroup
	for s := 0; s < 2; s++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := adminGet(t, base, "/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics: %d", code)
					return
				}
				checkExpositionShape(t, body)
				if code, body := adminGet(t, base, "/varz"); code != http.StatusOK || !json.Valid([]byte(body)) {
					t.Errorf("/varz: %d, valid JSON %v", code, json.Valid([]byte(body)))
					return
				}
				if code, body := adminGet(t, base, "/trace"); code != http.StatusOK || !json.Valid([]byte(body)) {
					t.Errorf("/trace: %d, valid JSON %v", code, json.Valid([]byte(body)))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sg.Wait()
	if t.Failed() {
		return
	}

	// Post-load scrape: the histograms carry what the load produced.
	_, body := adminGet(t, base, "/metrics")
	wantSubstrings := []string{
		`ordod_op_latency_seconds_bucket{op="get",le="+Inf"}`,
		`ordod_op_latency_seconds_bucket{op="insert",le="+Inf"}`,
		"ordod_queue_wait_seconds_count",
		"ordod_batch_ops_count",
		"ordod_wal_sync_seconds_count 0", // registered, no WAL configured
		`ordod_ops_total{op="get"}`,
	}
	for _, want := range wantSubstrings {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var getCount uint64
	fmt.Sscanf(findLine(body, `ordod_op_latency_seconds_count{op="get"}`), "%d", &getCount)
	if want := uint64(clients * opsPer); getCount != want {
		t.Errorf("get latency count = %d, want %d", getCount, want)
	}

	// pprof rides the same mux.
	if code, _ := adminGet(t, base, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := adminGet(t, base, "/debug/pprof/profile?seconds=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/profile: %d", code)
	}
}

// dialServer dials the serving address and wraps it in a wire client.
func dialServer(t *testing.T, addr string) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &testConn{Conn: wire.NewConn(nc), nc: nc}
}

// testConn pairs a wire.Conn with its socket so tests can close it.
type testConn struct {
	*wire.Conn
	nc net.Conn
}

func (c *testConn) CloseConn() { c.nc.Close() }

// checkExpositionShape asserts structural invariants any scrape must hold,
// even mid-load: every sample line belongs to a family that declared TYPE
// first, and histogram bucket counts are cumulative.
func checkExpositionShape(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	var lastBucket string
	var lastCum uint64
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typed[b] {
				base = b
				break
			}
		}
		if !typed[base] {
			t.Fatalf("sample %q has no TYPE header", line)
		}
		// Cumulative check per bucket series: group by everything before le.
		if strings.HasSuffix(name, "_bucket") {
			series := line[:strings.Index(line, `le="`)]
			var v uint64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v)
			if series == lastBucket && v < lastCum {
				t.Fatalf("bucket counts not cumulative at %q (%d after %d)", line, v, lastCum)
			}
			lastBucket, lastCum = series, v
		}
	}
}

// findLine returns the value field of the first exposition line starting
// with prefix, or "" when absent.
func findLine(body, prefix string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	return ""
}

// TestAdminServerLeakFree boots and closes the admin listener with an
// in-flight request to prove Close waits for its goroutines.
func TestAdminServerLeakFree(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	cfg := newYCSBServer(t, db.OCC)
	cfg.Telemetry = NewTelemetry(nil, nil, 0)
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	base, closeAdmin := startAdmin(t, ts.srv)
	if code, _ := adminGet(t, base, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	closeAdmin()
	// The port is released: a second admin server can bind and serve.
	base2, closeAdmin2 := startAdmin(t, ts.srv)
	defer closeAdmin2()
	if code, _ := adminGet(t, base2, "/healthz"); code != http.StatusOK {
		t.Fatalf("second admin /healthz: %d", code)
	}
}

// TestAdminShardSeriesPerLane scrapes a 4-lane server after a pipelined
// load over a contiguous keyspace: /metrics carries exactly one
// ordod_shard_ops_total series per lane, and the hash router spread the
// keys so that every lane executed batches.
func TestAdminShardSeriesPerLane(t *testing.T) {
	const lanes, keys = 4, 256
	cfg := newYCSBServer(t, db.OCC)
	cfg.Shards = lanes
	cfg.Telemetry = NewTelemetry(nil, nil, 0)
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	base, closeAdmin := startAdmin(t, ts.srv)
	defer closeAdmin()

	for _, op := range []wire.Op{wire.OpInsert, wire.OpPut, wire.OpGet} {
		for k := 0; k < keys; k++ {
			req := wire.Request{Op: op, Key: uint64(k)}
			if op != wire.OpGet {
				req.Vals = row(k)
			}
			if err := ts.c.WriteRequest(&req); err != nil {
				t.Fatal(err)
			}
		}
		if err := ts.c.Flush(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			if r, err := ts.c.ReadResponse(); err != nil || r.Status != wire.StatusOK {
				t.Fatalf("%v key %d: %v %v", op, k, r.Status, err)
			}
		}
	}

	_, body := adminGet(t, base, "/metrics")
	opsSeries, batchSeries := 0, 0
	for series, v := range promIntegers(t, body) {
		switch {
		case strings.HasPrefix(series, "ordod_shard_ops_total{"):
			opsSeries++
		case strings.HasPrefix(series, "ordod_shard_batches_total{"):
			batchSeries++
			if v == 0 {
				t.Errorf("idle lane: %s = 0", series)
			}
		}
	}
	if opsSeries != lanes || batchSeries != lanes {
		t.Fatalf("/metrics carries %d ordod_shard_ops_total and %d ordod_shard_batches_total series, want %d each",
			opsSeries, batchSeries, lanes)
	}
}
