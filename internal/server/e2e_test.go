package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/wire"
)

// requireNoGoroutineLeak snapshots the goroutine count and returns a check
// to defer: it polls until the count returns to the baseline (background
// teardown is asynchronous) and fails with a full stack dump if goroutines
// are still alive after the grace period — a goleak-style guard for every
// teardown path in this package.
func requireNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("goroutine leak: %d at start, %d after teardown\n%s", before, n, buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestEndToEnd drives ≥10k pipelined ops through real engines over TCP —
// once with logical timestamps (OCC) and once with Ordo hardware timestamps
// (OCC_ORDO) — and requires a clean protocol run: every op answers OK or
// CONFLICT (re-issued), never ERR or a decode/transport failure. For the
// Ordo run the server must also report nonzero clock comparisons, proving
// the timestamp path under test is actually the hardware-clock one.
func TestEndToEnd(t *testing.T) {
	for _, proto := range []db.Protocol{db.OCC, db.OCCOrdo} {
		t.Run(proto.String(), func(t *testing.T) {
			defer requireNoGoroutineLeak(t)()
			var ordo *core.Ordo
			if proto == db.OCCOrdo {
				// Single-vCPU CI boxes make calibration degenerate (one
				// core, boundary 0); construct the primitive directly with
				// a small nonzero boundary instead. Correctness only needs
				// the boundary to be an over-estimate per core pair, and on
				// one core any value is.
				ordo = core.New(core.Hardware, 1000)
			}
			engine, err := db.New(proto, ycsb.Schema(), ordo)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{DB: engine, Schema: ycsb.Schema()})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ln) }()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				if err := <-serveDone; err != nil {
					t.Errorf("serve: %v", err)
				}
			}()

			const (
				clients = 4
				opsPer  = 3000 // 12k ops total
				records = 256  // small keyspace so OCC_ORDO sees real contention
				window  = 32   // pipeline depth
			)

			// Preload the keyspace on one connection.
			preload(t, ln.Addr().String(), records)

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					errs <- runClient(ln.Addr().String(), cl, opsPer, records, window)
				}(cl)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			snap := counters(srv)
			if snap["ordod_commits_total"] == 0 {
				t.Fatal("server committed nothing")
			}
			if snap["ordod_protocol_errors_total"] != 0 {
				t.Fatalf("protocol errors: %d", snap["ordod_protocol_errors_total"])
			}
			if total := snap[`ordod_ops_total{op="get"}`] + snap[`ordod_ops_total{op="put"}`]; total < clients*opsPer {
				t.Fatalf("served %d simple ops, want ≥ %d", total, clients*opsPer)
			}
			if proto == db.OCCOrdo && snap["ordod_clock_cmps_total"] == 0 {
				t.Fatal("OCC_ORDO run recorded no hardware-clock comparisons")
			}
			t.Logf("%s: commits=%d aborts=%d batches=%d avg_batch=%.1f clock_cmps=%d uncertain=%d",
				proto, snap["ordod_commits_total"], snap["ordod_aborts_total"], snap["ordod_batches_total"],
				float64(snap["ordod_batched_ops_total"])/float64(max(snap["ordod_batches_total"], 1)),
				snap["ordod_clock_cmps_total"], snap["ordod_clock_uncertain_total"])
		})
	}
}

func preload(t *testing.T, addr string, records int) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	for k := 0; k < records; k++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: uint64(k), Vals: row(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < records; k++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("preload key %d: %v", k, r.Status)
		}
	}
}

// runClient issues ops 50/50 GET/PUT over a pipelined window, re-issuing
// ops that surface CONFLICT or BUSY (both are legitimate protocol answers;
// only ERR and transport failures fail the run).
func runClient(addr string, seed, ops, records, window int) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := wire.NewConn(nc)

	rng := uint64(seed)*2654435761 + 1
	next := func() uint64 {
		// xorshift64: deterministic per client, no shared state.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	mkReq := func() wire.Request {
		k := next() % uint64(records)
		if next()&1 == 0 {
			return wire.Request{Op: wire.OpGet, Key: k}
		}
		return wire.Request{Op: wire.OpPut, Key: k, Vals: row(int(k))}
	}

	inFlight := make([]wire.Request, 0, window)
	send := func(r wire.Request) error {
		if err := c.WriteRequest(&r); err != nil {
			return err
		}
		inFlight = append(inFlight, r)
		return nil
	}

	done := 0
	issued := 0
	for done < ops {
		for len(inFlight) < window && issued < ops {
			if err := send(mkReq()); err != nil {
				return err
			}
			issued++
		}
		if err := c.Flush(); err != nil {
			return err
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return fmt.Errorf("client %d after %d ops: %w", seed, done, err)
		}
		req := inFlight[0]
		inFlight = inFlight[1:]
		switch resp.Status {
		case wire.StatusOK:
			if req.Op == wire.OpGet && resp.Kind != wire.RespRow {
				return fmt.Errorf("client %d: GET answered %v", seed, resp.Kind)
			}
			done++
		case wire.StatusConflict, wire.StatusBusy:
			if err := send(req); err != nil { // re-issue, does not count
				return err
			}
		default:
			return fmt.Errorf("client %d: op %v status %v", seed, req.Op, resp.Status)
		}
	}
	return nil
}
