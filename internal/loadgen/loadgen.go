// Package loadgen drives an ordod server with a YCSB-shaped workload over
// the wire protocol: a pool of closed-loop client connections, each
// pipelining a window of requests, measuring throughput and per-op-type
// latency quantiles from the client side of the socket.
//
// It is the engine behind cmd/ordo-loadgen, a smoke and correctness
// driver: each connection refills one request per response and flushes it,
// one write per op, so its throughput is bound by the client. The
// benchmark is perfbench (BENCHMARK.json), whose client batches a window
// of requests per flush.
//
// CONFLICT and BUSY responses are legitimate protocol answers: the op is
// re-issued and counted separately. Any ERR status, decode failure or
// transport error is a protocol error and fails the run.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ordo/internal/db/ycsb"
	"ordo/internal/hist"
	"ordo/internal/telemetry/span"
	"ordo/internal/wire"
)

// Op classes index the per-type histograms in a Result.
const (
	ClassGet = iota
	ClassPut
	ClassTxn
	NClasses
)

// ClassNames maps a class index to its display name.
var ClassNames = [NClasses]string{"GET", "PUT", "TXN"}

// Config parameterizes one run. The zero value is not runnable; Conns,
// Window and Records must be positive.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Conns is the client connection count (one goroutine each).
	Conns int
	// Window is the pipelined requests in flight per connection.
	Window int
	// Ops is the op count per connection; ignored when Seconds is positive.
	Ops int
	// Seconds bounds the run by wall-clock time when positive.
	Seconds float64
	// Records is the keyspace size, preloaded before the run.
	Records int
	// Reads is the fraction of ops that are GETs.
	Reads float64
	// Theta is the Zipfian skew (0 = uniform).
	Theta float64
	// TxnOps, when positive, sends TXN frames of this many ops instead of
	// simple ops.
	TxnOps int
	// Seed is the base RNG seed; connection i uses Seed+i, so a fixed seed
	// reproduces the exact request sequence.
	Seed int64
	// DialFor keeps retrying the first dial for this long.
	DialFor time.Duration
	// OpTimeout is the per-I/O deadline; a read or flush exceeding it fails
	// the run instead of hanging (0 disables).
	OpTimeout time.Duration
	// ReportEvery prints one interval line per period to ReportTo while
	// running (0 disables).
	ReportEvery time.Duration
	// ReportTo receives the interval lines; nil discards them.
	ReportTo io.Writer
	// Replicas lists follower addresses to probe during the run: each gets
	// a dedicated write→read-your-writes prober against a reserved key,
	// counting NOT_YET answers and staleness violations and timing
	// ack-to-visible latency (see replica.go).
	Replicas []string
	// TraceSample is the fraction of requests stamped with a client-minted
	// trace ID (0 disables). The server force-samples a stamped request, so
	// every stamped op yields a full server-side span set.
	TraceSample float64
	// TraceScrape lists admin endpoints ("host:port" or full URLs) whose
	// /spans rings are scraped after the run to build Result.Stages — the
	// per-stage latency breakdown the run report prints.
	TraceScrape []string
}

// Result is one run's aggregated tallies.
type Result struct {
	// Done is the ops completed OK across all connections.
	Done uint64
	// Conflicts and Busy count re-issued answers.
	Conflicts uint64
	Busy      uint64
	// Elapsed is the measured wall-clock span of the worker pool.
	Elapsed time.Duration
	// Hists holds per-class client-side latency histograms.
	Hists [NClasses]hist.H
	// Server is the server's own stats snapshot fetched after the run; nil
	// when the fetch failed.
	Server *wire.Stats
	// Replicas holds one prober tally per configured follower.
	Replicas []ReplicaResult
	// Traced counts requests that carried a client-minted trace ID.
	Traced uint64
	// Stages is the per-stage server-side latency breakdown scraped from
	// Config.TraceScrape after the run, indexed like span.StageNames();
	// nil when no scrape targets were configured or none answered.
	Stages []hist.H
}

// OpsPerSec is the run's aggregate completed-op throughput.
func (r *Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Done) / r.Elapsed.Seconds()
}

// workerResult is one connection's tallies. The hists and counters belong
// to the worker alone until wg.Wait; only tick is shared with the
// interval reporter, under mu.
type workerResult struct {
	hists     [NClasses]hist.H
	done      uint64 // ops completed OK
	conflicts uint64 // CONFLICT answers (re-issued)
	busy      uint64 // BUSY answers (re-issued)
	traced    uint64 // requests stamped with a trace ID
	err       error

	// reporting turns on tick recording; set once before the worker starts.
	reporting bool
	mu        sync.Mutex
	tick      hist.H // completed ops since the reporter's last drain
}

// Run executes one configured load run and returns its aggregate result.
// A non-nil Result comes back even on error when at least the setup
// succeeded, so callers can report partial tallies.
func Run(cfg Config) (*Result, error) {
	if cfg.Conns <= 0 || cfg.Window <= 0 || cfg.Records <= 0 {
		return nil, fmt.Errorf("loadgen: Conns, Window and Records must be positive")
	}
	gcfg := ycsb.Config{Records: cfg.Records, ReadRatio: cfg.Reads, Theta: cfg.Theta}
	if _, err := ycsb.NewGen(gcfg, 0); err != nil {
		return nil, err
	}

	// Wait for the server, then preload the keyspace on one connection.
	nc, err := dialRetry(cfg.Addr, cfg.DialFor)
	if err != nil {
		return nil, err
	}
	if err := preload(wire.NewConn(deadlineConn{nc, cfg.OpTimeout}), cfg.Records, cfg.Window); err != nil {
		nc.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	nc.Close()

	var deadline time.Time
	if cfg.Seconds > 0 {
		deadline = time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	}

	results := make([]workerResult, cfg.Conns)
	for i := range results {
		results[i].reporting = cfg.ReportEvery > 0 && cfg.ReportTo != nil
	}
	// Replica probers run for the span of the worker pool: they write on
	// the leader and chase the writes onto each follower.
	stopProbe := make(chan struct{})
	joinProbers := runProbers(&cfg, stopProbe)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen, err := ycsb.NewGen(gcfg, cfg.Seed+int64(i))
			if err != nil {
				results[i].err = err
				return
			}
			sampler := span.NewSampler(cfg.TraceSample, uint64(cfg.Seed)+uint64(i)+1)
			results[i].err = runConn(cfg.Addr, gen, &results[i],
				cfg.Window, cfg.Ops, deadline, cfg.TxnOps, cfg.OpTimeout, sampler)
		}(i)
	}
	var stopReport, reportDone chan struct{}
	if cfg.ReportEvery > 0 && cfg.ReportTo != nil {
		stopReport = make(chan struct{})
		reportDone = make(chan struct{})
		go func() {
			defer close(reportDone)
			reporter(cfg.ReportTo, results, cfg.ReportEvery, stopReport)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopProbe)
	if stopReport != nil {
		// Join, not just signal: the caller may read ReportTo (or its own
		// buffer behind it) the moment Run returns.
		close(stopReport)
		<-reportDone
	}

	res := &Result{Elapsed: elapsed}
	var firstErr error
	res.Replicas, err = joinProbers()
	if err != nil {
		firstErr = fmt.Errorf("replica probe: %w", err)
	}
	for i := range results {
		if results[i].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("conn %d: %w", i, results[i].err)
		}
		res.Done += results[i].done
		res.Conflicts += results[i].conflicts
		res.Busy += results[i].busy
		res.Traced += results[i].traced
		for c := 0; c < NClasses; c++ {
			res.Hists[c].Merge(&results[i].hists[c])
		}
	}
	res.Stages = scrapeStages(cfg.TraceScrape, cfg.OpTimeout)

	// Close with the server's own view of the run.
	if nc, err := dialRetry(cfg.Addr, cfg.DialFor); err == nil {
		c := wire.NewConn(deadlineConn{nc, cfg.OpTimeout})
		if resp, err := c.Do(&wire.Request{Op: wire.OpStats}); err == nil {
			res.Server = resp.Stats
		}
		nc.Close()
	}

	if firstErr != nil {
		return res, firstErr
	}
	if res.Done == 0 {
		return res, fmt.Errorf("loadgen: no ops completed")
	}
	return res, nil
}

// reporter prints one progress line per interval: throughput and latency
// quantiles over the ops completed since the previous line, from a merge
// of every worker's tick histogram (drained and reset under its lock).
func reporter(w io.Writer, results []workerResult, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			var h hist.H
			for i := range results {
				r := &results[i]
				r.mu.Lock()
				h.Merge(&r.tick)
				r.tick = hist.H{}
				r.mu.Unlock()
			}
			dt := now.Sub(last).Seconds()
			last = now
			if h.Count() == 0 || dt <= 0 {
				fmt.Fprintf(w, "interval: 0 ops\n")
				continue
			}
			fmt.Fprintf(w, "interval: %.0f ops/s p50=%v p99=%v p999=%v\n",
				float64(h.Count())/dt,
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.999)).Round(time.Microsecond))
		}
	}
}

// deadlineConn arms a fresh deadline before every Read and Write, turning
// OpTimeout into a per-I/O bound: any single blocking syscall past it
// surfaces a net timeout error instead of hanging the connection forever
// (e.g. against a wedged or drop-everything server).
type deadlineConn struct {
	net.Conn
	d time.Duration
}

func (c deadlineConn) Read(p []byte) (int, error) {
	if c.d > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.d))
	}
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	if c.d > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.d))
	}
	return c.Conn.Write(p)
}

// dialRetry dials addr, retrying while the server comes up.
func dialRetry(addr string, dialFor time.Duration) (net.Conn, error) {
	var lastErr error
	stop := time.Now().Add(dialFor)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			return nc, nil
		}
		lastErr = err
		if time.Now().After(stop) {
			return nil, fmt.Errorf("dial %s: %w", addr, lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// preload pipelines INSERTs for the whole keyspace; DUPLICATE answers are
// fine (another loadgen or an earlier run already loaded the row).
func preload(c *wire.Conn, records, window int) error {
	inFlight := 0
	next := 0
	answered := 0
	for answered < records {
		for inFlight < window && next < records {
			vals := make([]uint64, ycsb.Cols)
			for j := range vals {
				vals[j] = uint64(next)
			}
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: uint64(next), Vals: vals}); err != nil {
				return err
			}
			next++
			inFlight++
		}
		if err := c.Flush(); err != nil {
			return err
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK && resp.Status != wire.StatusDuplicate {
			return fmt.Errorf("key %d: %v", answered, resp.Status)
		}
		answered++
		inFlight--
	}
	return nil
}

// pendingOp is one in-flight request with its issue time and class.
type pendingOp struct {
	req   wire.Request
	class int
	sent  time.Time
}

// runConn is one closed-loop connection: keep the pipeline full, read one
// response, classify it, refill.
func runConn(addr string, gen *ycsb.Gen, res *workerResult,
	window, ops int, deadline time.Time, txnOps int, opTO time.Duration,
	sampler span.Sampler) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := wire.NewConn(deadlineConn{nc, opTO})

	mkReq := func() (wire.Request, int) {
		var r wire.Request
		class := ClassTxn
		if txnOps > 0 {
			sub := make([]wire.Request, txnOps)
			for i := range sub {
				sub[i] = simpleReq(gen)
			}
			r = wire.Request{Op: wire.OpTxn, Ops: sub}
		} else {
			r = simpleReq(gen)
			class = ClassPut
			if r.Op == wire.OpGet {
				class = ClassGet
			}
		}
		// A client-minted trace ID rides the top-level frame only (the wire
		// layer forbids the flag on TXN sub-ops) and force-samples the
		// request server-side; re-issues keep the same ID.
		if id, ok := sampler.Sample(); ok {
			r.Trace = uint64(id)
			res.traced++
		}
		return r, class
	}

	timed := !deadline.IsZero()
	stopIssuing := func(issued int) bool {
		if timed {
			return time.Now().After(deadline)
		}
		return issued >= ops
	}

	var inFlight []pendingOp
	issued := 0
	send := func(p pendingOp) error {
		if err := c.WriteRequest(&p.req); err != nil {
			return err
		}
		p.sent = time.Now()
		inFlight = append(inFlight, p)
		return nil
	}

	for {
		for len(inFlight) < window && !stopIssuing(issued) {
			req, class := mkReq()
			if err := send(pendingOp{req: req, class: class}); err != nil {
				return err
			}
			issued++
		}
		if len(inFlight) == 0 {
			return nil // issued everything and drained
		}
		if err := c.Flush(); err != nil {
			return err
		}
		resp, err := c.ReadResponse()
		if err != nil {
			return fmt.Errorf("after %d ops: %w", res.done, err)
		}
		p := inFlight[0]
		inFlight = inFlight[1:]
		switch resp.Status {
		case wire.StatusOK:
			d := time.Since(p.sent)
			res.hists[p.class].RecordDuration(d)
			if res.reporting {
				res.mu.Lock()
				res.tick.RecordDuration(d)
				res.mu.Unlock()
			}
			res.done++
		case wire.StatusConflict:
			res.conflicts++
			if err := send(p); err != nil {
				return err
			}
		case wire.StatusBusy:
			res.busy++
			if err := send(p); err != nil {
				return err
			}
		default:
			return fmt.Errorf("op %v answered %v", p.req.Op, resp.Status)
		}
	}
}

// scrapeStages fetches /spans from each admin endpoint and folds every
// span with an extent into a per-stage latency histogram, indexed like
// span.StageNames(). Unreachable endpoints are skipped — the breakdown is
// a post-run report, not a correctness gate. Returns nil when no endpoint
// was configured or none answered.
func scrapeStages(endpoints []string, timeout time.Duration) []hist.H {
	if len(endpoints) == 0 {
		return nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	var hs []hist.H
	for _, ep := range endpoints {
		base := strings.TrimSpace(ep)
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		resp, err := client.Get(base + "/spans")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var d span.Dump
		if err := json.Unmarshal(body, &d); err != nil {
			continue
		}
		if hs == nil {
			hs = make([]hist.H, len(span.StageNames()))
		}
		for i := range d.Spans {
			if sp := &d.Spans[i]; sp.Dur > 0 && int(sp.Stage) < len(hs) {
				hs[sp.Stage].Record(sp.Dur)
			}
		}
	}
	return hs
}

// simpleReq draws one GET or PUT from the generator.
func simpleReq(gen *ycsb.Gen) wire.Request {
	k := gen.Key()
	if gen.IsRead() {
		return wire.Request{Op: wire.OpGet, Key: k}
	}
	vals := make([]uint64, ycsb.Cols)
	for j := range vals {
		vals[j] = k
	}
	return wire.Request{Op: wire.OpPut, Key: k, Vals: vals}
}
