// Command ordod serves an Ordo-timestamped key-value engine over TCP using
// the wire protocol (internal/wire). It is the network face of the paper's
// result: start it with -protocol OCC and again with -protocol OCC_ORDO and
// the same workload measures logical-clock versus hardware-clock timestamp
// allocation through a socket.
//
// Usage:
//
//	ordod -protocol OCC_ORDO -addr :7421
//	ordod -protocol OCC_ORDO -monitor -health-json health.json
//	ordod -protocol OCC_ORDO -wal-dir /var/lib/ordod/wal -wal-sync flush
//
// With -wal-dir the server is crash-safe: committed write-sets append to a
// file-backed write-ahead log and responses are withheld until a
// group-commit flush covers them; on startup the log is recovered (torn
// tail truncated, retried flushes deduped) and replayed into the engine in
// timestamp order before the listener opens.
//
// SIGINT/SIGTERM drain gracefully: accepted requests finish, responses
// flush, then the process exits 0 and (with -health-json) writes the drain
// document: the server's counter catalogue plus the clock-health snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/failover"
	"ordo/internal/health"
	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/telemetry"
	"ordo/internal/telemetry/span"
	"ordo/internal/tsc"
	"ordo/internal/wal"
)

// options bundles the parsed flags run() serves from.
type options struct {
	proto    string
	addr     string
	addrFile string
	cols     int
	shards   int
	maxBatch int
	queue    int
	retries  int

	monitor     bool
	monInterval time.Duration
	calRuns     int

	idleTimeout  time.Duration
	writeTimeout time.Duration
	healthJSON   string

	adminAddr     string
	adminAddrFile string
	slowOp        time.Duration
	traceSample   float64
	traceSpans    int

	walDir       string
	walSync      string
	walSyncEvery time.Duration
	walSegBytes  int64

	follow       string
	replAddr     string
	replAddrFile string
	replLagBound time.Duration

	failover         bool
	peers            string
	peerIndex        int
	heartbeatTimeout time.Duration
	replAckBound     time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.proto, "protocol", "OCC_ORDO",
		"engine protocol (OCC, OCC_ORDO, SILO, TICTOC, HEKATON, HEKATON_ORDO)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7421", "listen address")
	flag.StringVar(&o.addrFile, "addr-file", "",
		"write the bound listen address to this file once listening (for :0 port discovery)")
	flag.IntVar(&o.cols, "cols", 10, "row width of the single served table")
	flag.IntVar(&o.shards, "shards", 1,
		"single-writer partition lanes the keyspace is hashed across (1 disables sharding)")
	flag.IntVar(&o.maxBatch, "max-batch", server.DefaultMaxBatch,
		"max pipelined ops folded into one engine transaction")
	flag.IntVar(&o.queue, "queue", server.DefaultQueueDepth,
		"per-connection pending-op bound; ops beyond it are shed with BUSY")
	flag.IntVar(&o.retries, "retries", server.DefaultMaxRetries,
		"conflict retries per transaction before surfacing CONFLICT")
	flag.BoolVar(&o.monitor, "monitor", false,
		"run a background clock-health monitor (recalibrates the boundary periodically)")
	flag.DurationVar(&o.monInterval, "monitor-interval", 2*time.Second,
		"recalibration cadence for -monitor")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 0,
		"evict connections that send no complete request for this long (0 disables)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 0,
		"evict connections whose response writes stall for this long (0 disables)")
	flag.StringVar(&o.healthJSON, "health-json", "",
		"write the final server+clock snapshot as JSON to this file ('-' for stdout) on shutdown")
	flag.StringVar(&o.adminAddr, "admin-addr", "",
		"admin HTTP listen address serving /metrics, /healthz, /varz, /trace, /debug/pprof (empty disables)")
	flag.StringVar(&o.adminAddrFile, "admin-addr-file", "",
		"write the bound admin address to this file once listening (for :0 port discovery)")
	flag.DurationVar(&o.slowOp, "slow-op", server.DefaultSlowOp,
		"runs and WAL syncs slower than this are recorded in the event trace")
	flag.Float64Var(&o.traceSample, "trace-sample", 0,
		"distributed-tracing head-sampling probability in [0,1]; 0 disables tracing (requires -admin-addr for /spans)")
	flag.IntVar(&o.traceSpans, "trace-spans", span.DefaultRingSpans,
		"distributed-tracing span ring capacity for /spans")
	flag.IntVar(&o.calRuns, "calibration-runs", 200, "clock-pair samples per calibration")
	flag.StringVar(&o.walDir, "wal-dir", "",
		"write-ahead log directory; enables durable serving with startup recovery (empty disables)")
	flag.StringVar(&o.walSync, "wal-sync", "flush",
		"WAL sync policy: 'flush' fsyncs every group-commit flush, 'batched' fsyncs on a timer")
	flag.DurationVar(&o.walSyncEvery, "wal-sync-every", 0,
		"fsync cadence for -wal-sync batched (0 means the device default)")
	flag.Int64Var(&o.walSegBytes, "wal-segment-bytes", 0,
		"WAL segment rotation size (0 means the device default)")
	flag.StringVar(&o.follow, "follow", "",
		"run as a read-only follower tailing this leader replication address (requires -wal-dir)")
	flag.StringVar(&o.replAddr, "repl-addr", "",
		"leader replication listen address; followers subscribe here (requires -wal-dir, empty disables)")
	flag.StringVar(&o.replAddrFile, "repl-addr-file", "",
		"write the bound replication address to this file once listening (for :0 port discovery)")
	flag.DurationVar(&o.replLagBound, "repl-lag-bound", server.DefaultLagBound,
		"follower health bound: /healthz turns 503 when the leader is silent this long")
	flag.BoolVar(&o.failover, "failover", false,
		"run as a failover cluster member: probe -peers at boot, follow or lead per the epoch-fenced election (requires -wal-dir, -peers)")
	flag.StringVar(&o.peers, "peers", "",
		"failover cluster map as repl-addr@client-addr,... in priority order; must be identical on every member")
	flag.IntVar(&o.peerIndex, "peer-index", 0, "this node's position in -peers")
	flag.DurationVar(&o.heartbeatTimeout, "heartbeat-timeout", failover.DefaultHeartbeatTimeout,
		"leader silence a follower tolerates before starting an election")
	flag.DurationVar(&o.replAckBound, "repl-ack-bound", 0,
		"gate durable write acks on follower replication acks, bounded by this wait (0 disables; failover mode defaults to 2s)")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("ordod: ")

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	proto, err := db.ParseProtocol(o.proto)
	if err != nil {
		return err
	}
	if o.cols <= 0 {
		return fmt.Errorf("-cols must be positive, got %d", o.cols)
	}

	// Calibrate the host clock only when something will use it: an
	// Ordo-timestamped protocol, or the health monitor.
	var (
		ordo *core.Ordo
		mon  *health.Monitor
	)
	needsOrdo := proto == db.OCCOrdo || proto == db.HekatonOrdo
	if needsOrdo || o.monitor {
		var b core.Boundary
		ordo, b, err = core.CalibrateHardware(core.CalibrationOptions{Runs: o.calRuns})
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		log.Printf("host ORDO_BOUNDARY: %d ticks over %d CPUs", b.Global, b.CPUs)
	}
	if o.monitor {
		mon = health.NewMonitor(ordo, health.Options{
			Interval:    o.monInterval,
			Calibration: core.CalibrationOptions{Runs: o.calRuns},
			Stats:       health.NewStats(),
		})
		mon.Start()
		defer mon.Stop()
	}

	// Telemetry rides the admin endpoint: no -admin-addr means no latency
	// histograms, event trace or spans, and the serving path records
	// nothing beyond its counters.
	var tel *server.Telemetry
	if o.adminAddr != "" {
		reg := telemetry.NewRegistry()
		tracer := telemetry.NewTracer(telemetry.DefaultTraceEvents)
		tel = server.NewTelemetry(reg, tracer, o.slowOp)
		switch {
		case mon != nil:
			mon.Telemetry(reg, tracer)
		case ordo != nil:
			// No monitor, but an Ordo engine: export the boundary directly
			// so ordo_boundary_ns is on every scrape of an ordo server.
			health.RegisterBoundary(reg, ordo, tsc.Frequency)
		}
	}

	schema := db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: o.cols}}}
	engine, err := db.New(proto, schema, ordo)
	if err != nil {
		return err
	}

	// Replication roles are decided up front so durable-mode setup below
	// can build on them. Both roles require a WAL: the leader streams it,
	// the follower appends the stream to its own.
	role := server.RoleNone
	switch {
	case o.follow != "" && o.replAddr != "":
		return fmt.Errorf("-follow and -repl-addr are mutually exclusive (no chained replication)")
	case o.follow != "":
		role = server.RoleFollower
	case o.replAddr != "":
		role = server.RoleLeader
	}
	if role != server.RoleNone && o.walDir == "" {
		return fmt.Errorf("replication requires -wal-dir")
	}

	// Failover mode decides the role itself, by probing the cluster —
	// BEFORE recovery, because a fenced ex-leader must truncate its
	// unshipped WAL suffix while nothing has the log open.
	var (
		fpeers []failover.Peer
		boot   *failover.Bootstrap
	)
	if o.failover {
		if role != server.RoleNone {
			return fmt.Errorf("-failover is mutually exclusive with -follow and -repl-addr")
		}
		if o.walDir == "" {
			return fmt.Errorf("-failover requires -wal-dir")
		}
		fpeers, err = failover.ParsePeers(o.peers)
		if err != nil {
			return err
		}
		if o.peerIndex < 0 || o.peerIndex >= len(fpeers) {
			return fmt.Errorf("-peer-index %d outside -peers list of %d", o.peerIndex, len(fpeers))
		}
		if o.replAckBound <= 0 {
			// Failover's no-lost-acks guarantee rests on the replication-ack
			// gate; default it on rather than silently serving ungated.
			o.replAckBound = 2 * time.Second
		}
		boot, err = failover.Decide(failover.BootstrapConfig{
			Dir:              o.walDir,
			Index:            o.peerIndex,
			Peers:            fpeers,
			HeartbeatTimeout: o.heartbeatTimeout,
			Logf:             log.Printf,
		})
		if err != nil {
			return err
		}
		defer boot.Record.Close()
		role = boot.Role
		log.Printf("failover bootstrap: role=%v epoch=%d leader-index=%d truncated=%d resumed=%v",
			boot.Role, boot.Epoch, boot.LeaderIndex, boot.Truncated, boot.Resumed)
	}

	// Durable mode: recover and replay the log into the fresh engine, then
	// open the device for appending — all before the listener exists, so no
	// client ever observes pre-recovery state.
	var (
		walLog  *wal.Log
		walDev  *wal.FileDevice
		recInfo *wal.RecoveryInfo
	)
	if o.walDir != "" {
		var sync wal.SyncPolicy
		switch o.walSync {
		case "flush":
			sync = wal.SyncEachWrite
		case "batched":
			sync = wal.SyncBatched
		default:
			return fmt.Errorf("-wal-sync must be 'flush' or 'batched', got %q", o.walSync)
		}
		recs, info, err := wal.Recover(o.walDir)
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		st, err := server.Replay(engine, recs)
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		log.Printf("wal recovered: %d records (%d ops) from %d segments, %d incarnations; %d duplicates dropped, %d torn bytes truncated, %d replay anomalies",
			info.Records, st.Ops, info.Segments, info.Incarnations,
			info.Duplicates, info.TruncatedBytes, st.Anomalies)
		fcfg := wal.FileConfig{
			SegmentBytes: o.walSegBytes,
			Sync:         sync,
			SyncEvery:    o.walSyncEvery,
		}
		if tel != nil {
			fcfg.SyncObserver = tel.WALSyncObserver()
		}
		dev, err := wal.OpenFile(o.walDir, fcfg)
		if err != nil {
			return fmt.Errorf("wal open: %w", err)
		}
		defer dev.Close()
		walDev = dev
		walLog = wal.New(dev, nil)
		recInfo = &info
	}

	// boundary reports the current Ordo uncertainty window in clock ticks,
	// doubled while the health monitor is flagging anomalies — a suspect
	// clock widens the replication watermark rather than serving reads it
	// cannot vouch for.
	boundary := func() uint64 {
		if mon != nil {
			cs := mon.Snapshot()
			b := cs.BoundaryTicks
			if cs.Anomalies > 0 {
				b *= 2
			}
			return b
		}
		if ordo != nil {
			return uint64(ordo.Boundary())
		}
		return 0
	}
	var replState *server.ReplState
	if role != server.RoleNone {
		var tickHz uint64
		if ordo != nil {
			tickHz = tsc.Frequency()
		}
		replState = server.NewReplState(role, tickHz, o.replLagBound, 0)
	}

	// Distributed tracing: one span ring per process, stamped with this
	// node's name and fencing epoch, timed by the Ordo clock when one is
	// calibrated (wall clock otherwise). Enabled before the server binds so
	// the serving path's sampler is live from the first connection.
	var spanRing *span.Ring
	if o.traceSample > 0 {
		if tel == nil {
			return fmt.Errorf("-trace-sample requires -admin-addr (spans are served on /spans)")
		}
		rcfg := span.RingConfig{Node: o.addr, Size: o.traceSpans}
		if hz := tsc.Frequency(); ordo != nil && hz != 0 {
			// Span timestamps ride the kernel wall clock — the timebase every
			// process on the host (and, NTP willing, every node) shares — with
			// the calibrated Ordo boundary as the uncertainty half-width.
			// Stamping raw ticks/Frequency() here instead would be a trap:
			// each process measures its own hz, and that estimate's error is
			// multiplied by the counter's full uptime, so two nodes' span
			// clocks drift apart by hundreds of ms while still claiming the
			// boundary's nanosecond-scale certainty. The conversion below is
			// therefore only ever applied to short tick *deltas*.
			//
			// Split the conversion at the second so a counter that has run
			// for years cannot overflow the ×1e9.
			ticksNS := func(t uint64) uint64 {
				return t/hz*1e9 + t%hz*1e9/hz
			}
			rcfg.Clock = func() (uint64, uint64) {
				return uint64(time.Now().UnixNano()), ticksNS(uint64(ordo.Boundary()))
			}
			// Commit timestamps are engine ticks from moments ago: anchor at
			// the current (wall, ticks) pair and subtract the delta, so the
			// per-process frequency error acts on microseconds, not uptime.
			rcfg.ConvTicks = func(t uint64) uint64 {
				nowTicks, wall := uint64(ordo.GetTime()), uint64(time.Now().UnixNano())
				if t > nowTicks {
					return wall
				}
				if d := ticksNS(nowTicks - t); d < wall {
					return wall - d
				}
				return 0
			}
		}
		if replState != nil {
			rcfg.Epoch = replState.Epoch
		}
		spanRing = span.NewRing(rcfg)
		tel.EnableTracing(spanRing, o.traceSample)
		log.Printf("tracing enabled: sample=%g spans=%d node=%s", o.traceSample, o.traceSpans, o.addr)
	}

	scfg := server.Config{
		DB:           engine,
		Schema:       schema,
		Shards:       o.shards,
		Ordo:         ordo,
		MaxBatch:     o.maxBatch,
		QueueDepth:   o.queue,
		MaxRetries:   o.retries,
		IdleTimeout:  o.idleTimeout,
		WriteTimeout: o.writeTimeout,
		Monitor:      mon,
		WAL:          walLog,
		Recovery:     recInfo,
		Telemetry:    tel,
		Repl:         replState,
		Logf:         log.Printf,
	}
	scfg.ReplAckBound = o.replAckBound
	if role == server.RoleFollower {
		// The apply loop is the local log's only writer and the engine's
		// only mutator; the serving path is reads-only over both.
		scfg.WAL = nil
		scfg.ReadOnly = true
		if o.failover {
			// Promotion happens in place: keep the group committer alive
			// (ReadOnly keeps the serving path off it until the flip).
			scfg.WAL = walLog
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}

	// Leader: stream the WAL to followers on the replication listener.
	// The Source installs itself as the log's sink here — before the
	// serving listener exists — so no flushed record can predate it.
	var src *repl.Source
	if role == server.RoleLeader && !o.failover {
		src, err = repl.NewSource(repl.SourceConfig{
			Dir:         o.walDir,
			Log:         walLog,
			Incarnation: walDev.Incarnation(),
			State:       replState,
			Boundary:    boundary,
			// Followers' durable acks (and, while none is subscribed, the
			// source's own tail) release the -repl-ack-bound gate.
			AckAdvance: srv.NoteReplAck,
			Spans:      spanRing,
			Logf:       log.Printf,
		})
		if err != nil {
			return err
		}
		replLn, err := net.Listen("tcp", o.replAddr)
		if err != nil {
			return fmt.Errorf("repl listen: %w", err)
		}
		if o.replAddrFile != "" {
			if err := os.WriteFile(o.replAddrFile, []byte(replLn.Addr().String()), 0o644); err != nil {
				return fmt.Errorf("-repl-addr-file: %w", err)
			}
		}
		log.Printf("replication source on %s (incarnation %d)", replLn.Addr(), walDev.Incarnation())
		go func() {
			if err := src.Serve(replLn); err != nil {
				log.Printf("repl serve: %v", err)
			}
		}()
		defer src.Close()
	}

	// Follower: tail the leader in the background until shutdown.
	if role == server.RoleFollower && !o.failover {
		rec, err := repl.OpenRegime(o.walDir)
		switch {
		case errors.Is(err, repl.ErrRegimeCorrupt):
			// A lost cursor only costs a resend: replay is idempotent.
			log.Printf("%v; resuming from the origin", err)
		case err != nil:
			return err
		}
		defer rec.Close()
		fol, err := repl.NewFollower(repl.FollowerConfig{
			Addr:      o.follow,
			DB:        engine,
			Log:       walLog,
			State:     replState,
			Telemetry: tel,
			Regime:    rec,
			Boundary:  boundary,
			Spans:     spanRing,
			Logf:      log.Printf,
		})
		if err != nil {
			return err
		}
		log.Printf("following %s from cursor (%d, %d)", o.follow, fol.Position().Inc, fol.Position().Seq)
		fctx, fcancel := context.WithCancel(context.Background())
		folDone := make(chan struct{})
		go func() {
			defer close(folDone)
			_ = fol.Run(fctx)
		}()
		defer func() {
			fcancel()
			<-folDone
		}()
	}

	// Failover mode: one supervisor owns the replication listener, the
	// follower session loop, leader-death detection and promotion.
	if o.failover {
		fnode, err := failover.NewNode(failover.Config{
			Index:            o.peerIndex,
			Peers:            fpeers,
			Dir:              o.walDir,
			DB:               engine,
			Log:              walLog,
			Device:           walDev,
			Server:           srv,
			State:            replState,
			Telemetry:        tel,
			Spans:            spanRing,
			Boundary:         boundary,
			Boot:             boot,
			HeartbeatTimeout: o.heartbeatTimeout,
			Logf:             log.Printf,
		})
		if err != nil {
			return err
		}
		replLn, err := net.Listen("tcp", fpeers[o.peerIndex].Repl)
		if err != nil {
			return fmt.Errorf("failover repl listen: %w", err)
		}
		if o.replAddrFile != "" {
			if err := os.WriteFile(o.replAddrFile, []byte(replLn.Addr().String()), 0o644); err != nil {
				return fmt.Errorf("-repl-addr-file: %w", err)
			}
		}
		log.Printf("failover node %d on %s: role=%v epoch=%d heartbeat-timeout=%v",
			o.peerIndex, replLn.Addr(), fnode.Role(), fnode.Epoch(), o.heartbeatTimeout)
		go func() {
			if err := fnode.Serve(replLn); err != nil {
				log.Printf("failover serve: %v", err)
			}
		}()
		fctx, fcancel := context.WithCancel(context.Background())
		fdone := make(chan struct{})
		go func() {
			defer close(fdone)
			_ = fnode.Run(fctx)
		}()
		defer func() {
			fcancel()
			fnode.Close()
			<-fdone
		}()
	}

	// The admin endpoint opens before the serving listener so an operator
	// (or a readiness probe) can watch recovery-to-serving transitions.
	var admin *server.AdminServer
	if o.adminAddr != "" {
		admin, err = server.ServeAdmin(o.adminAddr, server.NewAdminHandler(srv))
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		if o.adminAddrFile != "" {
			if err := os.WriteFile(o.adminAddrFile, []byte(admin.Addr().String()), 0o644); err != nil {
				return fmt.Errorf("-admin-addr-file: %w", err)
			}
		}
		log.Printf("admin endpoint on http://%s (/metrics /healthz /varz /trace /spans /debug/pprof/)", admin.Addr())
	}
	closeAdmin := func() {
		if admin == nil {
			return
		}
		if err := admin.Close(); err != nil {
			log.Printf("admin close: %v", err)
		}
		admin = nil
	}
	defer closeAdmin()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("-addr-file: %w", err)
		}
	}
	log.Printf("serving %s on %s (max-batch=%d queue=%d retries=%d idle-timeout=%v write-timeout=%v durable=%v role=%v)",
		proto, ln.Addr(), o.maxBatch, o.queue, o.retries, o.idleTimeout, o.writeTimeout, walLog != nil, role)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-serveErr; err != nil {
			return err
		}
		closeAdmin()
	case err := <-serveErr:
		return err
	}

	doc := srv.Varz()
	log.Printf("drained: %v conns, %v commits, %v aborts, %v batches (%v ops), %v shed, %v degraded, %v evicted, %v wal flushes (%v records, %v device errors)",
		doc["ordod_conns_total"], doc["ordod_commits_total"], doc["ordod_aborts_total"], doc["ordod_batches_total"],
		doc["ordod_batched_ops_total"], doc["ordod_busy_total"], doc["ordod_degraded_runs_total"], doc["ordod_evictions_total"],
		doc["ordod_wal_flushes_total"], doc["ordod_wal_records_total"], doc["ordod_wal_device_errors_total"])
	if o.healthJSON != "" {
		if err := emitSnapshot(doc, o.healthJSON); err != nil {
			return err
		}
	}
	return nil
}

// emitSnapshot writes the drain document (Server.Varz) to path, "-" for
// stdout.
func emitSnapshot(doc map[string]any, path string) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	log.Printf("snapshot written to %s", path)
	return nil
}
