// Command ordo-loadgen drives an ordod server with a YCSB-shaped workload
// over the wire protocol: a pool of closed-loop client connections, each
// pipelining a window of requests, measuring throughput and per-op-type
// latency quantiles (p50/p99/p999) from the client side of the socket.
//
// It is a smoke and correctness driver, not a benchmark: each connection
// flushes once per op, so its throughput is bound by the client. For
// numbers, run perfbench (bash perfbench/run.sh; see BENCHMARK.json).
//
// Usage:
//
//	ordo-loadgen -addr 127.0.0.1:7421 -conns 4 -ops 10000
//	ordo-loadgen -seconds 2 -reads 0.5 -theta 0.9
//	ordo-loadgen -txn-ops 2            # TXN frames of 2 ops (paper §6.5 shape)
//	ordo-loadgen -replicas 127.0.0.1:7422    # probe follower read-your-writes
//	ordo-loadgen -sweep -replicas 127.0.0.1:7422  # leader/follower checksum compare
//
// With -replicas, each listed follower gets a dedicated prober alongside
// the bulk load: write on the leader, read the ack's durability token back
// through the follower's GET_AT, counting NOT_YET answers and staleness
// violations and reporting the ack-to-visible p99. Any staleness violation
// exits 1.
//
// With -sweep, no load runs: every key in [0, records) is read from -addr
// and digested; each -replicas follower is then re-swept until its digest
// matches (bounded by -sweep-wait), so a converged pair exits 0.
//
// CONFLICT and BUSY responses are legitimate protocol answers: the op is
// re-issued and counted separately. Any ERR status, decode failure or
// transport error is a protocol error; the process exits 1 if any occur.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ordo/internal/loadgen"
	"ordo/internal/telemetry/span"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7421", "ordod address")
		conns   = flag.Int("conns", 4, "client connections (one goroutine each)")
		window  = flag.Int("pipeline", 32, "pipelined requests in flight per connection")
		ops     = flag.Int("ops", 10000, "ops per connection (ignored when -seconds > 0)")
		seconds = flag.Float64("seconds", 0, "run duration; overrides -ops when positive")
		records = flag.Int("records", 4096, "keyspace size (preloaded before the run)")
		reads   = flag.Float64("reads", 0.5, "fraction of ops that are GETs")
		theta   = flag.Float64("theta", 0, "Zipfian skew (0 = uniform)")
		txnOps  = flag.Int("txn-ops", 0, "when positive, send TXN frames of this many ops instead of simple ops")
		seed    = flag.Int64("seed", 1, "base RNG seed (connection i uses seed+i)")
		dialFor = flag.Duration("dial-for", 5*time.Second, "keep retrying the first dial for this long")
		opTO    = flag.Duration("op-timeout", 10*time.Second,
			"per-I/O deadline; a read or flush exceeding it fails the run instead of hanging (0 disables)")
		report = flag.Duration("report-interval", 0,
			"print ops/s and latency quantiles for each interval while running (0 disables)")
		replicas = flag.String("replicas", "",
			"comma-separated follower addresses to probe (read fan-out with a read-your-writes check)")
		sweep = flag.Bool("sweep", false,
			"no load: checksum every key in [0, records) on -addr, then verify each -replicas follower converges to the same digest")
		sweepWait = flag.Duration("sweep-wait", 30*time.Second,
			"how long -sweep keeps re-reading a lagging follower before declaring divergence")
		failover = flag.Bool("failover", false,
			"failover mode: per-key monotone writes through the resilient client against -endpoints, then a read-back sweep asserting acked ≤ recovered ≤ issued")
		endpoints = flag.String("endpoints", "",
			"comma-separated client-facing addresses of every cluster node (failover mode)")
		workers  = flag.Int("workers", 4, "failover-mode writer goroutines")
		retryFor = flag.Duration("retry-for", 15*time.Second,
			"failover-mode per-op retry budget; must exceed the cluster's failover time")
		traceSample = flag.Float64("trace-sample", 0,
			"fraction of requests stamped with a client-minted trace ID (server force-samples them; 0 disables)")
		traceScrape = flag.String("trace-scrape", "",
			"comma-separated admin endpoints whose /spans are scraped after the run for the per-stage latency breakdown")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `Usage: ordo-loadgen [flags]

A smoke and correctness driver for ordod. Each connection flushes once
per op, so its throughput is bound by the client; for numbers, run
perfbench (bash perfbench/run.sh).

`)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *failover {
		if err := runFailover(*endpoints, *workers, *records, *seconds, *opTO, *retryFor); err != nil {
			fmt.Fprintf(os.Stderr, "ordo-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var replicaAddrs []string
	if *replicas != "" {
		for _, a := range strings.Split(*replicas, ",") {
			if a = strings.TrimSpace(a); a != "" {
				replicaAddrs = append(replicaAddrs, a)
			}
		}
	}
	if *sweep {
		if err := runSweep(*addr, replicaAddrs, *records, *window, *dialFor, *opTO, *sweepWait); err != nil {
			fmt.Fprintf(os.Stderr, "ordo-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := loadgen.Config{
		Addr:        *addr,
		Conns:       *conns,
		Window:      *window,
		Ops:         *ops,
		Seconds:     *seconds,
		Records:     *records,
		Reads:       *reads,
		Theta:       *theta,
		TxnOps:      *txnOps,
		Seed:        *seed,
		DialFor:     *dialFor,
		OpTimeout:   *opTO,
		ReportEvery: *report,
		ReportTo:    os.Stdout,
		Replicas:    replicaAddrs,
		TraceSample: *traceSample,
	}
	if *traceScrape != "" {
		for _, a := range strings.Split(*traceScrape, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.TraceScrape = append(cfg.TraceScrape, a)
			}
		}
	}
	res, err := loadgen.Run(cfg)
	if res != nil {
		printResult(cfg, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ordo-loadgen: %v\n", err)
		os.Exit(1)
	}
	if res != nil {
		for i := range res.Replicas {
			if res.Replicas[i].Stale > 0 {
				fmt.Fprintf(os.Stderr, "ordo-loadgen: replica %s served %d stale read(s)\n",
					res.Replicas[i].Addr, res.Replicas[i].Stale)
				os.Exit(1)
			}
		}
	}
}

// runFailover runs the failover harness: monotone per-key writes through
// the resilient client, a mid-run leader kill courtesy of the operator,
// and a read-back sweep that fails the process if any acknowledged write
// was lost.
func runFailover(endpoints string, workers, records int, seconds float64, opTO, retryFor time.Duration) error {
	var eps []string
	for _, a := range strings.Split(endpoints, ",") {
		if a = strings.TrimSpace(a); a != "" {
			eps = append(eps, a)
		}
	}
	if len(eps) == 0 {
		return fmt.Errorf("-failover requires -endpoints")
	}
	if seconds <= 0 {
		seconds = 10
	}
	res, err := loadgen.RunFailover(loadgen.FailoverConfig{
		Endpoints: eps,
		Workers:   workers,
		Keys:      records,
		Seconds:   seconds,
		OpTimeout: opTO,
		RetryFor:  retryFor,
		ReportTo:  os.Stdout,
	})
	if res != nil {
		fmt.Printf("failover: acked=%d writes in %v, max ack gap %v\n",
			res.Acked, res.Elapsed.Round(time.Millisecond), res.MaxAckGap.Round(time.Millisecond))
		fmt.Printf("failover: not_leader_retries=%d redirects=%d reconnects=%d uncertain=%d\n",
			res.Client.NotLeaderRetries, res.Client.Redirects, res.Client.Reconnects, res.Client.Uncertain)
		fmt.Printf("failover: swept=%d violations=%d\n", res.SweptKeys, res.Violations)
	}
	return err
}

// runSweep digests the key range on the primary, then requires every
// follower to converge to the same digest within wait.
func runSweep(addr string, replicas []string, records, window int, dialFor, opTO, wait time.Duration) error {
	lead, err := loadgen.Sweep(addr, records, window, dialFor, opTO)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", addr, err)
	}
	fmt.Printf("sweep %s: records=%d found=%d checksum=%016x\n", addr, records, lead.Found, lead.Checksum)
	for _, r := range replicas {
		deadline := time.Now().Add(wait)
		for {
			got, err := loadgen.Sweep(r, records, window, dialFor, opTO)
			if err != nil {
				return fmt.Errorf("sweep %s: %w", r, err)
			}
			if got == lead {
				fmt.Printf("sweep %s: records=%d found=%d checksum=%016x (match)\n", r, records, got.Found, got.Checksum)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("sweep %s: diverged after %v: found=%d checksum=%016x, want found=%d checksum=%016x",
					r, wait, got.Found, got.Checksum, lead.Found, lead.Checksum)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// printResult renders the run summary: aggregate throughput, re-issue
// counts, per-class latency lines, and the server's own counters.
func printResult(cfg loadgen.Config, res *loadgen.Result) {
	fmt.Printf("ran %d ops on %d conns (pipeline %d) in %v: %.0f ops/s\n",
		res.Done, cfg.Conns, cfg.Window, res.Elapsed.Round(time.Millisecond),
		res.OpsPerSec())
	fmt.Printf("re-issued: %d conflicts, %d busy\n", res.Conflicts, res.Busy)
	for c := 0; c < loadgen.NClasses; c++ {
		if res.Hists[c].Count() == 0 {
			continue
		}
		fmt.Printf("%-4s %s\n", loadgen.ClassNames[c], res.Hists[c].String())
	}
	if s := res.Server; s != nil {
		fmt.Printf("server [%s]: commits=%d aborts=%d batches=%d batched_ops=%d shed=%d clock_cmps=%d uncertain=%d\n",
			s.Protocol, s.Commits, s.Aborts, s.Batches, s.BatchedOps,
			s.Busy, s.ClockCmps, s.ClockUncertain)
	}
	if cfg.TraceSample > 0 {
		fmt.Printf("traced: %d requests (sample %g)\n", res.Traced, cfg.TraceSample)
	}
	if res.Stages != nil {
		fmt.Printf("per-stage breakdown (server-side spans):\n")
		for st, name := range span.StageNames() {
			h := &res.Stages[st]
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("  %-11s n=%-7d p50=%-10v p99=%v\n", name, h.Count(),
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
		}
	}
	for i := range res.Replicas {
		r := &res.Replicas[i]
		fmt.Printf("replica %s: probes=%d not_yet=%d stale=%d", r.Addr, r.Probes, r.NotYet, r.Stale)
		// Quantiles from a handful of probes are noise dressed up as
		// precision (p99 of 3 samples is just the max), so below the
		// sample floor report only the count — suppressed, not zero.
		if n := r.Visibility.Count(); n >= minVisibilitySamples {
			fmt.Printf(" visible n=%d p50=%v p99=%v", n,
				time.Duration(r.Visibility.Quantile(0.5)).Round(time.Microsecond),
				time.Duration(r.Visibility.Quantile(0.99)).Round(time.Microsecond))
		} else if n > 0 {
			fmt.Printf(" visible n=%d (quantiles suppressed below %d samples)",
				n, minVisibilitySamples)
		}
		fmt.Println()
	}
}

// minVisibilitySamples is the floor below which ack-to-visible quantiles
// are suppressed rather than reported from too little data.
const minVisibilitySamples = 100
