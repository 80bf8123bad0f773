package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ordo/internal/telemetry/span"
	"ordo/internal/wire"
)

// Serving-workload settings shared by the kv-* workloads.
const (
	nConns      = 2    // client connections, one goroutine each
	traceSample = 0.01 // -trace-sample of the traced pass
	traceSpans  = 1 << 15
	captureOps  = 4096 // requests and replies kept for the codec timings

	// drainLimit bounds how long requests refused with a retry status may
	// keep being re-issued once load stops (after the window, in sweeps).
	drainLimit = 30 * time.Second
)

// serverArgs are the ordod flags every serving workload uses: the default
// OCC_ORDO engine on two shard lanes, durable under -wal-sync flush.
func serverArgs(e *env, dir string, cols int) []string {
	args := []string{
		"-protocol", "OCC_ORDO",
		"-shards", "2",
		"-cols", fmt.Sprint(cols),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-wal-sync", "flush",
	}
	if e.trace {
		// -slow-op 1h: ordod also traces every run slower than -slow-op,
		// and those forced spans would pull the stage medians toward the
		// tail; with it out of reach the rings hold the head sample (and
		// every cross-shard TXN, which is always traced).
		args = append(args, "-trace-sample", fmt.Sprint(traceSample), "-trace-spans", fmt.Sprint(traceSpans), "-slow-op", "1h")
	}
	return args
}

// load is one connection's share of a serving workload.
type load[T any] interface {
	// fill tops the window up with fresh requests.
	fill(w *window[T])
	// done checks one final reply against the connection's model.
	done(tag T, req *wire.Request, resp *wire.Response) error
}

// driven is what one closed-loop drive measured.
type driven struct {
	e2e      e2e
	reissues uint64
	bytes    uint64 // socket bytes both ways inside the measured window
	capReqs  []wire.Request
	capResps []wire.Response
}

// drive runs every load on its own connection: warm-up, then the
// measured window, then a drain of queued retries. atStart and atEnd run
// at the window's edges (the traced pass snapshots counters there).
func drive[T any](e *env, conns []*wconn, loads []load[T], cpu func() (float64, error), atStart, atEnd func() error) (driven, error) {
	start := time.Now().Add(warmup)
	end := start.Add(time.Duration(e.seconds) * interval)
	recs := make([]*recorder, len(loads))
	wins := make([]*window[T], len(loads))
	bytes := make([]uint64, len(loads))
	errs := make([]error, len(loads)+1)
	var wg sync.WaitGroup
	for i := range loads {
		recs[i] = newRecorder(start, e.seconds)
		wins[i] = &window[T]{c: conns[i]}
		if i == 0 && e.trace {
			wins[i].capN = captureOps
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, l, c := wins[i], loads[i], conns[i]
			var b0 uint64
			for {
				now := time.Now()
				if !now.Before(end) {
					break
				}
				if w.rec == nil && !now.Before(start) {
					w.rec = recs[i]
					b0 = c.bytesIn + c.bytesOut
				}
				l.fill(w)
				if err := w.round(l.done); err != nil {
					errs[i] = err
					return
				}
			}
			bytes[i] = c.bytesIn + c.bytesOut - b0
			for w.pending() > 0 {
				if time.Since(end) > drainLimit {
					errs[i] = fmt.Errorf("%d re-issued requests still refused %v after the window", w.pending(), drainLimit)
					return
				}
				if err := w.round(l.done); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	cs := sampleCPU(start, e.seconds, cpu)
	if atStart != nil || atEnd != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start))
			if atStart != nil {
				if errs[len(loads)] = atStart(); errs[len(loads)] != nil {
					return
				}
			}
			time.Sleep(time.Until(end))
			if atEnd != nil {
				errs[len(loads)] = atEnd()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			<-cs.done
			return driven{}, err
		}
	}
	var d driven
	var err error
	if d.e2e, err = summarize(merged(recs), cs); err != nil {
		return driven{}, err
	}
	for i, w := range wins {
		d.reissues += w.reissues
		d.bytes += bytes[i]
	}
	d.capReqs, d.capResps = wins[0].capReqs, wins[0].capResps
	return d, nil
}

// nodesCPU sums the CPU time of every node.
func nodesCPU(nodes ...*node) func() (float64, error) {
	return func() (float64, error) {
		var t float64
		for _, n := range nodes {
			v, err := n.cpuSeconds()
			if err != nil {
				return 0, err
			}
			t += v
		}
		return t, nil
	}
}

// dialAll opens nConns connections to addr.
func dialAll(addr string) ([]*wconn, error) {
	out := make([]*wconn, 0, nConns)
	for i := 0; i < nConns; i++ {
		c, err := dial(addr)
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(cs []*wconn) {
	for _, c := range cs {
		c.close()
	}
}

// setE2E records the end-to-end metrics of an untraced pass.
func setE2E(o *outcome, d driven, setup time.Duration) {
	o.set("throughput_ops_s", "ops/s", d.e2e.throughput)
	o.set("latency_p50_us", "us", d.e2e.p50us)
	o.set("cpu_us_per_op", "us", d.e2e.cpuUSPerOp)
	o.set("setup_s", "s", setup.Seconds())
}

// counters is one snapshot of a node's public counters: its STATS frame
// and its /metrics scrape.
type counters struct {
	stats *wire.Stats
	prom  scrape
}

func snapshot(n *node) (counters, error) {
	c, err := dial(n.addr)
	if err != nil {
		return counters{}, err
	}
	defer c.close()
	st, err := c.stats()
	if err != nil {
		return counters{}, fmt.Errorf("%s: %w", n.name, err)
	}
	pr, err := scrapeMetrics(n.admin)
	if err != nil {
		return counters{}, fmt.Errorf("%s: %w", n.name, err)
	}
	return counters{stats: st, prom: pr}, nil
}

// serverLayers derives the per-layer metrics a serving node's counters
// give between two snapshots. ops is the client's completed ops in the
// window and txns its completed TXN frames.
func serverLayers(o *outcome, b, a counters, ops, txns float64) {
	ds := func(f func(*wire.Stats) uint64) float64 { return float64(f(a.stats) - f(b.stats)) }
	dp := func(name string) float64 { return a.prom.sum(name) - b.prom.sum(name) }
	batches := ds(func(s *wire.Stats) uint64 { return s.Batches })
	o.layer("server.ops_per_batch", ratio(ds(func(s *wire.Stats) uint64 { return s.BatchedOps }), batches, 1))
	o.layer("server.queue_wait_p50_us", histQuantile(b.prom, a.prom, "ordod_queue_wait_seconds", 0.5)*1e6)
	o.layer("server.ack_wait_p50_us", histQuantile(b.prom, a.prom, "ordod_ack_latency_seconds", 0.5)*1e6)
	o.layer("server.degraded_per_kbatch", ratio(ds(func(s *wire.Stats) uint64 { return s.Degraded }), batches, 1e3))
	o.layer("shard.ops_per_lane_batch", ratio(dp("ordod_shard_ops_total"), dp("ordod_shard_batches_total"), 1))
	o.layer("shard.holds_per_txn", ratio(dp("ordod_shard_holds_total"), txns, 1))
	reads := dp("ordod_cross_shard_reads_total")
	o.layer("xshard.not_yet_per_kread", ratio(dp("ordod_cross_shard_not_yet_total"), reads, 1e3))
	o.layer("xshard.retries_per_kread", ratio(dp("ordod_cross_shard_retries_total"), reads, 1e3))
	o.layer("db.aborts_per_kcommit", ratio(ds(func(s *wire.Stats) uint64 { return s.Aborts }), ds(func(s *wire.Stats) uint64 { return s.Commits }), 1e3))
	o.layer("db.uncertain_per_kcmp", ratio(ds(func(s *wire.Stats) uint64 { return s.ClockUncertain }), ds(func(s *wire.Stats) uint64 { return s.ClockCmps }), 1e3))
	o.layer("core.boundary_ns", a.prom.sum("ordo_boundary_ns"))
	flushes := ds(func(s *wire.Stats) uint64 { return s.WALFlushes })
	o.layer("wal.records_per_flush", ratio(ds(func(s *wire.Stats) uint64 { return s.WALRecords }), flushes, 1))
	o.layer("wal.flushes_per_kop", ratio(flushes, ops, 1e3))
	o.layer("wal.fsync_p50_us", histQuantile(b.prom, a.prom, "ordod_wal_sync_seconds", 0.5)*1e6)
}

// clientLayers records the client-side per-layer metrics of a drive.
func clientLayers(o *outcome, d driven) {
	ops := float64(d.e2e.ops)
	o.layer("client.latency_p99_us", d.e2e.p99us)
	o.layer("client.latency_samples", float64(d.e2e.samples))
	o.layer("client.reissued_per_kop", ratio(float64(d.reissues), ops, 1e3))
	o.layer("wire.bytes_per_op", ratio(float64(d.bytes), ops, 1))
	o.layer("trace.throughput_ops_s", d.e2e.throughput)
}

// traceLayers records the span-stage medians over every node's ring and
// the part of the client's p50 that no blocking stage accounts for. The
// blocking path of a request is decode, queue, lane and ack: the ack wait
// covers the WAL append, fsync, ship and apply a durable write waits for.
func traceLayers(o *outcome, nodes []*node, clientP50 float64) error {
	var all []span.Span
	for _, n := range nodes {
		sp, err := scrapeSpans(n.admin)
		if err != nil {
			return fmt.Errorf("%s: %w", n.name, err)
		}
		all = append(all, sp...)
	}
	p50 := stageP50s(all)
	for st, v := range p50 {
		o.layer("trace."+st+"_p50_us", v)
	}
	o.layer("trace.unattributed_p50_us", clientP50-(p50["decode"]+p50["queue"]+p50["lane"]+p50["ack"]))
	return nil
}

// firstAnswer dials addr until a GET of key is answered, and returns when
// it was.
func firstAnswer(addr string, key uint64, deadline time.Time) (time.Time, error) {
	for {
		c, err := dial(addr)
		if err == nil {
			resp, err := c.do(&wire.Request{Op: wire.OpGet, Key: key})
			c.close()
			if err == nil && resp.Status == wire.StatusOK {
				return time.Now(), nil
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("no answer from %s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
