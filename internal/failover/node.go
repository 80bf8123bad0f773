package failover

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ordo/internal/db"
	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// DefaultHeartbeatTimeout is how long a follower tolerates leader silence
// (no WALBATCH or WATERMARK frame) before it starts an election. The
// leader heartbeats every repl.DefaultWatermarkEvery (100ms), so the
// default absorbs an order of magnitude of jitter.
const DefaultHeartbeatTimeout = time.Second

// Config wires a Node into one ordod process. Everything is required
// unless marked optional; Boot comes from Decide, which must have run
// before the WAL was recovered and opened.
type Config struct {
	// Index and Peers mirror the BootstrapConfig the node was decided
	// with.
	Index int
	Peers []Peer
	// Dir is the WAL directory.
	Dir string
	// DB is the live engine (the follower apply loop's target).
	DB db.DB
	// Log and Device are the open local WAL.
	Log    *wal.Log
	Device *wal.FileDevice
	// Server is the serving core: promotion flips it writable and feeds
	// its replication-ack gate.
	Server *server.Server
	// State is the shared replication scoreboard.
	State *server.ReplState
	// Telemetry records promotion takeover durations. Optional.
	Telemetry *server.Telemetry
	// Spans is the node's distributed-tracing span ring, handed to the
	// replication Source (repl_ship spans) and Follower (repl_apply spans)
	// across every role change. Optional.
	Spans *span.Ring
	// Boundary reports the local Ordo uncertainty window. Optional.
	Boundary func() uint64
	// Boot is the regime Decide fixed and recorded for this process.
	Boot *Bootstrap
	// HeartbeatTimeout, DialTimeout, RetryEvery and RetryMax default to
	// DefaultHeartbeatTimeout, DefaultDialTimeout and the repl package's
	// reconnect defaults.
	HeartbeatTimeout time.Duration
	DialTimeout      time.Duration
	RetryEvery       time.Duration
	RetryMax         time.Duration
	// Logf receives operational messages. Optional.
	Logf func(format string, args ...any)
}

// Node is the failover supervisor for one process: it serves the
// replication listener (demuxing subscriptions and peer probes), runs the
// follower session loop with leader-death detection, and performs the
// election and in-place promotion when the leader goes silent.
type Node struct {
	cfg Config

	mu        sync.Mutex
	role      server.ReplRole
	epoch     uint64
	leaderIdx int
	src       *repl.Source   // leader side; nil while following
	fol       *repl.Follower // follower side; kept after promotion for its cursor

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	lnMu sync.Mutex
	ln   net.Listener
}

// NewNode builds the supervisor for the regime Decide fixed. For a leader
// boot it builds the replication Source immediately (installing it as the
// log's record sink before any serving traffic can flush).
func NewNode(cfg Config) (*Node, error) {
	switch {
	case cfg.Boot == nil || cfg.Boot.Record == nil:
		return nil, fmt.Errorf("failover: Config.Boot is required (run Decide first)")
	case cfg.Index < 0 || cfg.Index >= len(cfg.Peers):
		return nil, fmt.Errorf("failover: peer index %d outside peer list of %d", cfg.Index, len(cfg.Peers))
	case cfg.DB == nil || cfg.Log == nil || cfg.Device == nil || cfg.Server == nil || cfg.State == nil:
		return nil, fmt.Errorf("failover: DB, Log, Device, Server and State are all required")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = repl.DefaultRetryEvery
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = repl.DefaultRetryMax
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:       cfg,
		role:      cfg.Boot.Role,
		epoch:     cfg.Boot.Epoch,
		leaderIdx: cfg.Boot.LeaderIndex,
		quit:      make(chan struct{}),
	}
	n.cfg.State.SetEpoch(n.epoch)
	if n.leaderIdx >= 0 {
		n.cfg.State.SetLeaderAddr(cfg.Peers[n.leaderIdx].Client)
	}

	switch n.role {
	case server.RoleLeader:
		// A resumed regime holds the ack gate until a follower
		// re-subscribes: the probes that allowed the resume prove no NEW
		// leader answered, not that no election is completing right now.
		start := cfg.Boot.Record.Load().Start
		src, err := n.newSource(n.epoch, start.Inc, start.Seq, cfg.Boot.Resumed)
		if err != nil {
			return nil, err
		}
		n.src = src
	case server.RoleFollower:
		fol, err := repl.NewFollower(repl.FollowerConfig{
			Addr:        cfg.Peers[maxInt(n.leaderIdx, 0)].Repl,
			DB:          cfg.DB,
			Log:         cfg.Log,
			State:       cfg.State,
			Telemetry:   cfg.Telemetry,
			Regime:      cfg.Boot.Record,
			Boundary:    cfg.Boundary,
			RetryEvery:  cfg.RetryEvery,
			RetryMax:    cfg.RetryMax,
			DialTimeout: cfg.DialTimeout,
			Spans:       cfg.Spans,
			Logf:        cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		n.fol = fol
	default:
		return nil, fmt.Errorf("failover: bootstrap role %v is not a cluster role", n.role)
	}
	return n, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newSource builds this node's leader-side stream with the failover
// wiring: epoch fencing, the regime-start cursor for fenced rejoiners,
// the client-facing redirect address, and the replication-ack feed into
// the serving core.
func (n *Node) newSource(epoch, prevInc, prevSeq uint64, holdAckGate bool) (*repl.Source, error) {
	return repl.NewSource(repl.SourceConfig{
		Dir:         n.cfg.Dir,
		Log:         n.cfg.Log,
		Incarnation: n.cfg.Device.Incarnation(),
		State:       n.cfg.State,
		Boundary:    n.cfg.Boundary,
		Epoch:       epoch,
		PrevInc:     prevInc,
		PrevSeq:     prevSeq,
		Advertise:   n.cfg.Peers[n.cfg.Index].Client,
		AckAdvance:  n.cfg.Server.NoteReplAck,
		HoldAckGate: holdAckGate,
		Spans:       n.cfg.Spans,
		Logf:        n.cfg.Logf,
	})
}

// Serve accepts replication connections on ln until Close, demuxing each
// by its hello frame: SUBSCRIBE goes to the live Source (or is refused
// with a redirect while following), STATUS is answered with this node's
// current regime view. It owns ln.
func (n *Node) Serve(ln net.Listener) error {
	n.lnMu.Lock()
	select {
	case <-n.quit:
		n.lnMu.Unlock()
		ln.Close()
		return fmt.Errorf("failover: node closed")
	default:
	}
	n.ln = ln
	n.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-n.quit:
				return nil
			default:
				return err
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(nc)
		}()
	}
}

func (n *Node) handleConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	m, _, err := wire.ReadReplHello(br, nil)
	if err != nil {
		n.cfg.Logf("failover: %v: bad hello: %v", nc.RemoteAddr(), err)
		return
	}
	n.mu.Lock()
	role, epoch, src, leaderIdx := n.role, n.epoch, n.src, n.leaderIdx
	n.mu.Unlock()
	if m.Epoch > epoch {
		// The hello outranks our regime — a promotion announcement or a
		// peer that already converged on one. A leader seeing it has been
		// fenced and must stop acking writes before answering anything; a
		// follower just adopts the view so its next session retargets.
		if role == server.RoleLeader {
			n.demote(m.Epoch, n.announcedLeader(&m))
		} else {
			n.noteEpoch(m.Epoch)
			if idx := n.announcedLeader(&m); idx >= 0 {
				n.setLeader(idx)
			}
		}
		n.mu.Lock()
		role, epoch, src, leaderIdx = n.role, n.epoch, n.src, n.leaderIdx
		n.mu.Unlock()
	}
	switch m.Kind {
	case wire.ReplStatus:
		n.writeMsg(nc, epoch, n.status())
	case wire.ReplSubscribe:
		if role == server.RoleLeader && src != nil {
			src.ServeSubscriber(nc, br, &m)
			return
		}
		// Not the leader: one REJECT carrying where we believe writes go.
		rej := &wire.ReplMsg{Kind: wire.ReplReject, Role: uint64(role)}
		if leaderIdx >= 0 {
			rej.Addr = n.cfg.Peers[leaderIdx].Client
		}
		n.writeMsg(nc, epoch, rej)
	default:
		n.cfg.Logf("failover: %v: unexpected hello %v", nc.RemoteAddr(), m.Kind)
	}
}

// status builds this node's STATUS answer: the Source's stream view when
// leading, the follower cursor otherwise. Probes use Inc/Seq as the
// election position, so a follower reports exactly what it has applied.
func (n *Node) status() *wire.ReplMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == server.RoleLeader && n.src != nil {
		return n.src.Status()
	}
	m := &wire.ReplMsg{
		Kind: wire.ReplStatus,
		Role: uint64(n.role),
		Addr: n.cfg.Peers[n.cfg.Index].Client,
	}
	if n.fol != nil {
		pos := n.fol.Position()
		m.Inc, m.Seq = pos.Inc, pos.Seq
	}
	return m
}

// writeMsg sends one epoch-stamped frame; errors only end the probe
// connection, which is already closing.
func (n *Node) writeMsg(nc net.Conn, epoch uint64, m *wire.ReplMsg) {
	m.Epoch = epoch
	p, err := wire.AppendReplMsg(nil, m)
	if err != nil {
		return
	}
	_ = wire.WriteReplFrame(nc, p)
}

// Run drives the supervision loop until ctx is done. A follower runs
// sessions with leader-death detection and may promote itself; a leader
// (boot-time or promoted) runs the self-probe loop, demoting itself in
// place if it ever observes a higher epoch — a leader that never looked
// again after boot could keep serving a regime the cluster has already
// fenced. A demoted node parks read-only until the operator restarts it
// (the restart runs the fenced-rejoin truncation in Decide).
func (n *Node) Run(ctx context.Context) error {
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role == server.RoleFollower {
		n.followLoop(ctx)
	}
	n.mu.Lock()
	role = n.role
	n.mu.Unlock()
	if role == server.RoleLeader {
		n.leaderLoop(ctx)
	}
	<-ctx.Done()
	return ctx.Err()
}

// leaderLoop is the active leader's self-supervision: probe the peers
// every heartbeat interval and demote in place on any view of a higher
// epoch. Returns when the node is no longer the leader or ctx is done.
func (n *Node) leaderLoop(ctx context.Context) {
	t := time.NewTicker(n.cfg.HeartbeatTimeout)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.quit:
			return
		case <-t.C:
		}
		n.mu.Lock()
		role, epoch := n.role, n.epoch
		n.mu.Unlock()
		if role != server.RoleLeader {
			return
		}
		for i, p := range n.cfg.Peers {
			if i == n.cfg.Index || ctx.Err() != nil {
				continue
			}
			m, err := Probe(p.Repl, n.cfg.DialTimeout)
			if err != nil {
				continue
			}
			if m.Epoch > epoch {
				idx := -1
				if server.ReplRole(m.Role) == server.RoleLeader {
					idx = i
				}
				n.demote(m.Epoch, idx)
				return
			}
		}
	}
}

// demote fences this node out of leadership in place after it observed a
// higher epoch: stop acking writes FIRST (read-only), then flip the role
// and close the Source so every subscriber re-resolves the regime. The
// local WAL is left untouched — its tail may hold an unshipped suffix in
// the old stream's coordinates, and truncating requires a closed log — so
// the regime record keeps RoleLeader and the node serves reads and
// NOT_LEADER redirects until a restart runs the fenced-rejoin path in
// Decide.
func (n *Node) demote(higher uint64, leaderIdx int) {
	n.cfg.Server.SetReadOnly(true)
	n.mu.Lock()
	if n.role != server.RoleLeader {
		n.mu.Unlock()
		return
	}
	n.role = server.RoleFollower
	if higher > n.epoch {
		n.epoch = higher
	}
	n.leaderIdx = leaderIdx
	src := n.src
	n.src = nil
	n.mu.Unlock()

	st := n.cfg.State
	st.SetRole(server.RoleFollower)
	st.SetEpoch(higher)
	if leaderIdx >= 0 {
		st.SetLeaderAddr(n.cfg.Peers[leaderIdx].Client)
	} else {
		st.SetLeaderAddr("")
	}
	st.NoteFencing()
	if src != nil {
		src.Close()
	}
	n.cfg.Logf("failover: demoted by epoch %d regime; serving reads only — restart this node to rejoin as a follower", higher)
}

// followLoop runs follower sessions against the believed leader,
// reconnecting with capped exponential backoff, converging on fencing
// rejections, and — when the leader has been silent past the heartbeat
// timeout — holding an election. It returns once this node promotes.
func (n *Node) followLoop(ctx context.Context) {
	delay := n.cfg.RetryEvery
	for ctx.Err() == nil {
		n.mu.Lock()
		fol := n.fol
		target := n.cfg.Peers[maxInt(n.leaderIdx, 0)].Repl
		n.mu.Unlock()

		fol.Retarget(target)
		began := time.Now()
		err := fol.Session(ctx)
		if ctx.Err() != nil {
			return
		}
		productive := time.Since(began) > 2*n.cfg.RetryEvery

		var fenced *repl.Fenced
		if errors.As(err, &fenced) {
			if fenced.Epoch >= fol.Epoch() {
				// A rejection from the current or a newer regime: adopt it
				// (Converge resets the cursor for the new leader's
				// coordinate space) and chase its advertised address.
				if cerr := fol.Converge(fenced); cerr != nil {
					n.cfg.Logf("failover: converge: %v", cerr)
				}
				n.noteEpoch(fol.Epoch())
				if idx := n.peerByClient(fenced.Addr); idx >= 0 {
					n.setLeader(idx)
				}
				productive = true
			} else {
				// A stale regime refused us. Its advertised leader is, at
				// best, history — do NOT repoint at it, and do NOT treat the
				// refusal as progress: let the heartbeat timeout run out and
				// drive an election past the zombie.
				n.cfg.Logf("failover: ignoring rejection from stale epoch %d (ours %d)", fenced.Epoch, fol.Epoch())
			}
		}

		if n.cfg.State.ContactAge() > n.cfg.HeartbeatTimeout {
			if n.election(ctx) {
				return // promoted; Run parks on ctx
			}
		}

		if productive {
			delay = n.cfg.RetryEvery
		} else if delay *= 2; delay > n.cfg.RetryMax {
			delay = n.cfg.RetryMax
		}
		jittered := delay*3/4 + time.Duration(rand.Int63n(int64(delay)/2))
		select {
		case <-ctx.Done():
			return
		case <-time.After(jittered):
		}
	}
}

// election probes every peer and decides whether this node should take
// over: the winner is the greatest (epoch, incarnation, seq) position
// among live candidates, ties broken by the lowest peer index. Finding
// any live leader at or above our epoch cancels the election — the
// believed-leader pointer is retargeted instead. Returns true when this
// node promoted itself.
func (n *Node) election(ctx context.Context) bool {
	n.mu.Lock()
	fol := n.fol
	n.mu.Unlock()
	pos := fol.Position()
	myEpoch := fol.Epoch()

	bestIdx, bestEpoch, bestInc, bestSeq := n.cfg.Index, myEpoch, pos.Inc, pos.Seq
	maxEpoch := myEpoch
	for i, p := range n.cfg.Peers {
		if i == n.cfg.Index || ctx.Err() != nil {
			continue
		}
		m, err := Probe(p.Repl, n.cfg.DialTimeout)
		if err != nil {
			continue
		}
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
		}
		if server.ReplRole(m.Role) == server.RoleLeader && m.Epoch >= myEpoch {
			n.cfg.Logf("failover: election found live leader %s at epoch %d", p.Repl, m.Epoch)
			n.setLeader(i)
			return false
		}
		if beats(m.Epoch, m.Inc, m.Seq, i, bestEpoch, bestInc, bestSeq, bestIdx) {
			bestIdx, bestEpoch, bestInc, bestSeq = i, m.Epoch, m.Inc, m.Seq
		}
	}
	if ctx.Err() != nil {
		return false
	}
	if bestIdx != n.cfg.Index {
		n.cfg.Logf("failover: deferring takeover to peer %d at (epoch %d, pos %d/%d)",
			bestIdx, bestEpoch, bestInc, bestSeq)
		return false
	}
	return n.promote(maxEpoch)
}

// beats reports whether candidate a out-positions candidate b: more
// caught-up wins ((epoch, inc, seq) lexicographic), lower priority index
// breaks exact ties. Every live candidate evaluates the same inputs, so
// concurrent elections pick the same winner.
func beats(aE, aI, aS uint64, aIdx int, bE, bI, bS uint64, bIdx int) bool {
	switch {
	case aE != bE:
		return aE > bE
	case aI != bI:
		return aI > bI
	case aS != bS:
		return aS > bS
	}
	return aIdx < bIdx
}

// promote performs the in-place takeover: one regime record store moves
// role, the bumped fencing epoch and the regime start (the takeover
// cursor) together — the promotion barrier: a restart can never come back
// up believing in a lower epoch — then streaming starts, and only then
// does the serving core open for writes. Any failure leaves the node a
// follower; the next detection round retries.
func (n *Node) promote(maxEpochSeen uint64) bool {
	deadFor := n.cfg.State.ContactAge()
	start := time.Now()
	pos := n.fol.Position()
	newEpoch := maxEpochSeen + 1
	n.cfg.Logf("failover: promoting to leader at epoch %d from cursor (%d, %d); leader silent %v",
		newEpoch, pos.Inc, pos.Seq, deadFor.Round(time.Millisecond))

	// No gate hold: promotion happens while the cluster is live, and the
	// election just proved no higher regime exists among reachable peers.
	src, err := n.newSource(newEpoch, pos.Inc, pos.Seq, false)
	if err != nil {
		n.cfg.Logf("failover: promotion aborted: source: %v", err)
		return false
	}
	if err := n.cfg.Boot.Record.Store(repl.Regime{Role: server.RoleLeader, Epoch: newEpoch, Start: pos}); err != nil {
		n.cfg.Log.SetSink(nil)
		src.Close()
		n.cfg.Logf("failover: promotion aborted: %v", err)
		return false
	}

	n.mu.Lock()
	n.role = server.RoleLeader
	n.epoch = newEpoch
	n.leaderIdx = n.cfg.Index
	n.src = src
	n.mu.Unlock()

	st := n.cfg.State
	st.SetEpoch(newEpoch)
	st.SetRole(server.RoleLeader)
	st.SetLeaderAddr(n.cfg.Peers[n.cfg.Index].Client)
	st.SetLag(0)
	n.cfg.Server.SetReadOnly(false)
	st.NotePromotion()
	if t := n.cfg.Telemetry; t != nil {
		t.ObservePromotion(time.Since(start))
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.announceRegime(newEpoch)
	}()
	n.cfg.Logf("failover: serving writes at epoch %d (takeover %v)", newEpoch, time.Since(start).Round(time.Millisecond))
	return true
}

// noteEpoch raises the node's view of the cluster epoch.
func (n *Node) noteEpoch(e uint64) {
	n.mu.Lock()
	if e > n.epoch {
		n.epoch = e
	}
	n.mu.Unlock()
	n.cfg.State.SetEpoch(e)
}

// setLeader repoints the believed leader and the client redirect target.
func (n *Node) setLeader(idx int) {
	n.mu.Lock()
	n.leaderIdx = idx
	n.mu.Unlock()
	n.cfg.State.SetLeaderAddr(n.cfg.Peers[idx].Client)
}

// announcedLeader resolves a hello to a leader peer index: the sender must
// claim the leader role and advertise a known client address. -1 otherwise.
func (n *Node) announcedLeader(m *wire.ReplMsg) int {
	if server.ReplRole(m.Role) != server.RoleLeader {
		return -1
	}
	return n.peerByClient(m.Addr)
}

// announceRegime pushes one best-effort STATUS exchange at every peer so
// they learn the new epoch now rather than at their next probe or stream
// frame. The critical consumer is a stale ex-leader that resumed while
// this election ran: the announcement demotes it before its gate waiver
// can ack a write the new regime never saw.
func (n *Node) announceRegime(epoch uint64) {
	hello := wire.ReplMsg{
		Kind:  wire.ReplStatus,
		Role:  uint64(server.RoleLeader),
		Epoch: epoch,
		Addr:  n.cfg.Peers[n.cfg.Index].Client,
	}
	for i, p := range n.cfg.Peers {
		if i == n.cfg.Index {
			continue
		}
		if _, err := Announce(p.Repl, &hello, n.cfg.DialTimeout); err != nil {
			n.cfg.Logf("failover: announcing epoch %d to %s: %v", epoch, p.Repl, err)
		}
	}
}

// peerByClient maps a client-facing address back to a peer index, -1 when
// unknown.
func (n *Node) peerByClient(addr string) int {
	if addr == "" {
		return -1
	}
	for i, p := range n.cfg.Peers {
		if p.Client == addr {
			return i
		}
	}
	return -1
}

// Epoch returns the node's current fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Role returns the node's current role.
func (n *Node) Role() server.ReplRole {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Close stops the listener and the leader-side stream and waits for the
// connection handlers. The follower loop stops via its context.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.quit)
		n.lnMu.Lock()
		if n.ln != nil {
			n.ln.Close()
		}
		n.lnMu.Unlock()
	})
	n.mu.Lock()
	src := n.src
	n.mu.Unlock()
	if src != nil {
		src.Close()
	}
	n.wg.Wait()
}
