package failover

import (
	"fmt"
	"os"
	"time"

	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/wal"
)

// DefaultDialTimeout bounds each peer probe and election dial.
const DefaultDialTimeout = time.Second

// Bootstrap is a node's starting regime, decided before WAL recovery so
// a fenced rejoin can truncate the log while nothing has it open.
type Bootstrap struct {
	// Role this node boots into.
	Role server.ReplRole
	// Epoch the node serves under (and opens its WAL device with).
	Epoch uint64
	// LeaderIndex is the believed leader's peer index (this node's own
	// index when Role is leader), -1 when no leader is known yet.
	LeaderIndex int
	// Truncated is how many unshipped records a fenced rejoin dropped.
	Truncated int
	// Resumed marks a leader boot that resumed a prior regime in a
	// multi-node cluster. A resumed leader cannot prove its followers did
	// not promote a successor moments after the probes (crash-stop gives
	// no negative evidence), so the node holds the replication-ack
	// gate's no-subscriber waiver until the first follower re-subscribes.
	Resumed bool
}

// BootstrapConfig parameterizes Decide.
type BootstrapConfig struct {
	// Dir is the WAL directory (sidecars live next to the segments).
	Dir string
	// Index is this node's position in Peers.
	Index int
	// Peers is the full cluster map, including this node.
	Peers []Peer
	// CursorFile is the follower stream-cursor sidecar path.
	CursorFile string
	// DialTimeout bounds each peer probe; ≤ 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// HeartbeatTimeout is the cluster's leader-silence bound, used to
	// derive the default resume grace; ≤ 0 means DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// ResumeGrace is how long an ex-leader keeps re-probing for a
	// concurrent election before resuming its own regime; ≤ 0 derives
	// HeartbeatTimeout + 2×DialTimeout — long enough that a follower
	// whose election was triggered by our death has promoted and answers
	// probes as the new leader.
	ResumeGrace time.Duration
	// Logf receives operational messages. Optional.
	Logf func(format string, args ...any)
}

// Decide probes the cluster and fixes this node's starting regime. It
// MUST run before wal.Recover/OpenFile: the fenced-rejoin path rewrites
// the log in place.
//
// The decision table:
//
//   - A live leader answered a probe: join it as a follower. If its epoch
//     is newer than anything recorded locally AND this node's sidecar says
//     it led the old regime, the local log tail past the new leader's
//     takeover cursor was never shipped — truncate it first, so recovery
//     replays exactly the prefix the new regime inherited.
//   - No live leader, but the sidecar says this node was the leader:
//     re-probe for ResumeGrace first — a crashed leader restarting fast can
//     race the very election its death triggered, and resuming blindly at
//     the old epoch while a follower promotes at epoch+1 forks the cluster
//     into two acking leaders. Only when the grace expires with no live
//     leader and no peer reporting a higher epoch does the node resume its
//     regime (followers re-subscribe by cursor). A peer at a higher epoch
//     with its leader unreachable is a hard refusal: a newer regime exists,
//     and booting without its takeover cursor cannot be done safely.
//   - No live leader and no leader history: priority index 0 takes the
//     cold cluster at a bumped epoch (fencing any regime history found on
//     disk); everyone else follows it.
//
// A follower that finds its cursor AHEAD of a newer regime's takeover
// point would mean an acknowledged write existed only on this node while
// it was dead — a double failure outside the supported model. Decide
// refuses to guess and resets the node to an empty log (it re-backfills
// everything from the new leader), logging loudly.
func Decide(cfg BootstrapConfig) (*Bootstrap, error) {
	if cfg.Index < 0 || cfg.Index >= len(cfg.Peers) {
		return nil, fmt.Errorf("failover: peer index %d outside peer list of %d", cfg.Index, len(cfg.Peers))
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	meta, err := ReadMeta(cfg.Dir)
	if err != nil {
		return nil, err
	}
	epoch := meta.Epoch
	if diskEpoch, err := wal.MaxEpoch(cfg.Dir); err == nil && diskEpoch > epoch {
		epoch = diskEpoch
	}
	var cursor repl.Position
	if cfg.CursorFile != "" {
		if cursor, err = repl.ReadCursor(cfg.CursorFile); err != nil {
			logf("failover: %v; treating the cursor as origin", err)
		}
	}
	if cursor.Epoch > epoch {
		epoch = cursor.Epoch
	}

	// One probe round over the other peers; the newest live leader wins.
	round := probeRound(&cfg)

	// An ex-leader restarting with no live leader in sight may be racing
	// the election its own death triggered: the followers noticed the
	// silence, but their winner has not finished promoting yet. Resuming
	// now would put two acking leaders on the wire at different epochs.
	// Keep re-probing for the grace window; a live leader found on any
	// round is joined below exactly like a first-round find.
	if round.leaderIdx < 0 && meta.Role == "leader" && len(cfg.Peers) > 1 {
		grace := cfg.ResumeGrace
		if grace <= 0 {
			hb := cfg.HeartbeatTimeout
			if hb <= 0 {
				hb = DefaultHeartbeatTimeout
			}
			grace = hb + 2*cfg.DialTimeout
		}
		step := cfg.DialTimeout
		if step > 100*time.Millisecond {
			step = 100 * time.Millisecond
		}
		logf("failover: ex-leader restart: re-probing for a concurrent election for %v before resuming epoch %d", grace, epoch)
		start := time.Now()
		deadline := start.Add(grace)
		// Seeing a higher epoch proves a newer regime exists even when its
		// leader has not answered yet; wait longer for it to appear before
		// giving up (resuming would be the data-loss fork, and following
		// blindly — without the new regime's takeover cursor to truncate
		// to — is not safe either).
		extended := start.Add(5 * grace)
		for round.leaderIdx < 0 {
			now := time.Now()
			if now.After(deadline) && (round.maxEpoch <= epoch || now.After(extended)) {
				break
			}
			time.Sleep(step)
			next := probeRound(&cfg)
			if next.maxEpoch < round.maxEpoch {
				next.maxEpoch = round.maxEpoch
			}
			round = next
		}
		if round.leaderIdx < 0 && round.maxEpoch > epoch {
			return nil, fmt.Errorf("failover: a peer reports epoch %d past our regime %d but its leader is unreachable; refusing to resume (manual intervention or a reachable leader required)", round.maxEpoch, epoch)
		}
	}

	b := &Bootstrap{Epoch: epoch, LeaderIndex: round.leaderIdx}
	leaderEpoch, leaderPrevInc, leaderPrevSeq := round.leaderEpoch, round.leaderPrevInc, round.leaderPrevSeq
	switch {
	case round.leaderIdx >= 0:
		b.Role = server.RoleFollower
		if leaderEpoch > epoch {
			switch meta.Role {
			case "leader":
				// Fenced ex-leader: our log's coordinates ARE the old
				// stream's, and the new leader acknowledged through
				// (PrevInc, PrevSeq). Everything past it is the unshipped
				// suffix — no follower ack, so no client ack under the
				// gate, depended on it.
				dropped, err := wal.TruncateAfter(cfg.Dir, leaderPrevInc, leaderPrevSeq)
				if err != nil {
					return nil, fmt.Errorf("failover: truncating fenced log: %w", err)
				}
				b.Truncated = dropped
				logf("failover: fenced by epoch %d regime: truncated %d unshipped records after (%d, %d)",
					leaderEpoch, dropped, leaderPrevInc, leaderPrevSeq)
			default:
				// Ex-follower (or fresh node): its log is a local
				// transcription in its own coordinates; cursor position
				// decides whether it is a safe prefix.
				if cursorBeyond(cursor, leaderPrevInc, leaderPrevSeq) {
					logf("failover: WARNING: cursor (%d, %d) runs past epoch %d regime start (%d, %d) — double failure? resetting local log to re-backfill",
						cursor.Inc, cursor.Seq, leaderEpoch, leaderPrevInc, leaderPrevSeq)
					if err := resetDir(cfg.Dir); err != nil {
						return nil, err
					}
					// The cursor may live outside the WAL dir.
					_ = os.Remove(cfg.CursorFile)
				}
			}
			b.Epoch = leaderEpoch
		}
	case meta.Role == "leader":
		// Leader restart with no competing regime found within the grace
		// window: resume it. The ack gate stays held until a follower
		// re-subscribes (Resumed), so even a probe-evading concurrent
		// election cannot make this node ack writes only it holds.
		b.Role = server.RoleLeader
		b.LeaderIndex = cfg.Index
		b.Resumed = len(cfg.Peers) > 1
	case cfg.Index == 0:
		// Cold takeover by the priority head: fence whatever regime the
		// on-disk epoch history belonged to by bumping past it (and past
		// anything live peers reported), so two regimes can never serve
		// under the same epoch.
		b.Role = server.RoleLeader
		b.LeaderIndex = 0
		if round.maxEpoch > b.Epoch {
			b.Epoch = round.maxEpoch
		}
		b.Epoch++
	default:
		// Cold follower with nobody answering yet: assume the priority
		// head will lead; the supervision loop re-probes until it does.
		b.Role = server.RoleFollower
		b.LeaderIndex = 0
	}

	// Failover regimes are fenced, and epoch 0 means "unfenced legacy"
	// on the wire — a failover leader never serves under it.
	if b.Role == server.RoleLeader && b.Epoch == 0 {
		b.Epoch = 1
	}
	return b, nil
}

// roundResult is one probe sweep's digest: the newest live leader (if any
// answered) and the highest epoch any peer reported.
type roundResult struct {
	leaderIdx                                 int
	leaderEpoch, leaderPrevInc, leaderPrevSeq uint64
	maxEpoch                                  uint64
}

// probeRound probes every other peer once.
func probeRound(cfg *BootstrapConfig) roundResult {
	r := roundResult{leaderIdx: -1}
	for i, p := range cfg.Peers {
		if i == cfg.Index {
			continue
		}
		m, err := Probe(p.Repl, cfg.DialTimeout)
		if err != nil {
			continue
		}
		if m.Epoch > r.maxEpoch {
			r.maxEpoch = m.Epoch
		}
		if server.ReplRole(m.Role) == server.RoleLeader && (r.leaderIdx < 0 || m.Epoch > r.leaderEpoch) {
			r.leaderIdx, r.leaderEpoch = i, m.Epoch
			r.leaderPrevInc, r.leaderPrevSeq = m.PrevInc, m.PrevSeq
		}
	}
	return r
}

func cursorBeyond(c repl.Position, prevInc, prevSeq uint64) bool {
	if c.Inc != prevInc {
		return c.Inc > prevInc
	}
	return c.Seq > prevSeq
}

// resetDir wipes a WAL directory (segments, cursor, sidecars) so the node
// re-backfills from scratch.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("failover: resetting %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("failover: recreating %s: %w", dir, err)
	}
	return nil
}
