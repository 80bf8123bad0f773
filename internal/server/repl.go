package server

import (
	"sync/atomic"
	"time"
)

// ReplRole is a server's position in a replication pair.
type ReplRole int32

// Replication roles.
const (
	// RoleNone is an unreplicated server.
	RoleNone ReplRole = iota
	// RoleLeader serves writes and streams its WAL to followers.
	RoleLeader
	// RoleFollower serves watermark-gated reads from a replayed WAL tail.
	RoleFollower
)

// String returns the role's display name.
func (r ReplRole) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	}
	return "none"
}

// Defaults for ReplState's zero limits.
const (
	// DefaultLagBound is how stale a follower's leader contact may grow
	// before /healthz turns 503.
	DefaultLagBound = 5 * time.Second
	// DefaultMaxLagRecords is how many records a follower may trail the
	// leader's advertised tail before /healthz turns 503.
	DefaultMaxLagRecords = 1 << 16
)

// ReplState is the shared replication scoreboard between a Server and the
// repl subsystem that feeds it: the repl.Source (leader) or repl.Follower
// (follower) writes it, and the server's counter catalogue, /healthz rule
// and watermark gate read it. All fields
// are atomics; every method is safe for concurrent use.
type ReplState struct {
	role   atomic.Int32 // ReplRole; atomic because failover promotes in place
	tickHz uint64       // invariant-clock frequency for tick→ns conversion; 0 = report raw ticks

	lagBound      time.Duration
	maxLagRecords uint64

	followers      atomic.Int64
	lagRecords     atomic.Uint64
	watermark      atomic.Uint64 // safe-read watermark, clock ticks
	appliedTS      atomic.Uint64 // highest commit timestamp applied (follower)
	appliedRecords atomic.Uint64
	appliedBytes   atomic.Uint64
	lastContact    atomic.Int64 // unix nanos of the last leader frame (follower)

	epoch      atomic.Uint64 // fencing epoch the node serves under
	promotions atomic.Uint64 // leadership takeovers this process performed
	fencings   atomic.Uint64 // stale-epoch frames/peers this process rejected
	reconnects atomic.Uint64 // follower reconnect attempts
	leaderAddr atomic.Value  // string: client-facing addr of the believed leader
}

// NewReplState builds a scoreboard for one server. tickHz is the invariant
// clock frequency (tsc.Frequency()); zero reports watermarks in raw ticks.
// lagBound ≤ 0 means DefaultLagBound; maxLagRecords 0 means
// DefaultMaxLagRecords. A follower counts as in contact at construction so
// a freshly booted replica has lagBound to reach its leader before the
// health endpoint starts failing.
func NewReplState(role ReplRole, tickHz uint64, lagBound time.Duration, maxLagRecords uint64) *ReplState {
	if lagBound <= 0 {
		lagBound = DefaultLagBound
	}
	if maxLagRecords == 0 {
		maxLagRecords = DefaultMaxLagRecords
	}
	st := &ReplState{tickHz: tickHz, lagBound: lagBound, maxLagRecords: maxLagRecords}
	st.role.Store(int32(role))
	st.lastContact.Store(time.Now().UnixNano())
	return st
}

// Role returns the server's replication role.
func (st *ReplState) Role() ReplRole { return ReplRole(st.role.Load()) }

// SetRole changes the server's replication role in place — the failover
// promotion path; everything that branches on Role observes the change on
// its next read.
func (st *ReplState) SetRole(role ReplRole) { st.role.Store(int32(role)) }

// SetEpoch publishes the fencing epoch the node serves under. Epochs only
// advance; a smaller value is ignored.
func (st *ReplState) SetEpoch(e uint64) {
	for {
		cur := st.epoch.Load()
		if e <= cur || st.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the fencing epoch.
func (st *ReplState) Epoch() uint64 { return st.epoch.Load() }

// NotePromotion counts a completed leadership takeover.
func (st *ReplState) NotePromotion() { st.promotions.Add(1) }

// Promotions returns the takeover count.
func (st *ReplState) Promotions() uint64 { return st.promotions.Load() }

// NoteFencing counts a stale-epoch rejection (either direction: a stale
// peer we refused, or a newer regime that refused us).
func (st *ReplState) NoteFencing() { st.fencings.Add(1) }

// Fencings returns the stale-epoch rejection count.
func (st *ReplState) Fencings() uint64 { return st.fencings.Load() }

// NoteReconnect counts one follower reconnect attempt.
func (st *ReplState) NoteReconnect() { st.reconnects.Add(1) }

// Reconnects returns the follower reconnect-attempt count.
func (st *ReplState) Reconnects() uint64 { return st.reconnects.Load() }

// SetLeaderAddr publishes the client-facing address of the node currently
// believed to lead — what a follower's NOT_LEADER rejections carry as the
// redirect. Empty means unknown (the write is refused without a hint).
func (st *ReplState) SetLeaderAddr(addr string) { st.leaderAddr.Store(addr) }

// LeaderAddr returns the believed leader's client-facing address.
func (st *ReplState) LeaderAddr() string {
	if v := st.leaderAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// AddFollowers adjusts the subscribed-follower count (leader side).
func (st *ReplState) AddFollowers(delta int64) { st.followers.Add(delta) }

// Followers returns the subscribed-follower count.
func (st *ReplState) Followers() int64 { return st.followers.Load() }

// SetLag records the current replication lag in records: on a leader the
// worst follower's unacknowledged backlog, on a follower its own distance
// behind the leader's advertised tail.
func (st *ReplState) SetLag(records uint64) { st.lagRecords.Store(records) }

// Lag returns the current replication lag in records.
func (st *ReplState) Lag() uint64 { return st.lagRecords.Load() }

// SetWatermark publishes the safe-read watermark in clock ticks. The
// watermark only advances; a smaller value is ignored so a transient
// widening of the uncertainty window cannot retract reads already allowed.
func (st *ReplState) SetWatermark(ticks uint64) {
	for {
		cur := st.watermark.Load()
		if ticks <= cur || st.watermark.CompareAndSwap(cur, ticks) {
			return
		}
	}
}

// Watermark returns the safe-read watermark in clock ticks.
func (st *ReplState) Watermark() uint64 { return st.watermark.Load() }

// WatermarkNS returns the watermark converted to nanoseconds, or the raw
// tick value when no clock frequency is known.
func (st *ReplState) WatermarkNS() uint64 {
	w := st.watermark.Load()
	if st.tickHz == 0 {
		return w
	}
	return uint64(float64(w) / float64(st.tickHz) * 1e9)
}

// NoteApplied records one applied batch on a follower: record and byte
// counts for the lag gauges, and the batch's highest commit timestamp.
func (st *ReplState) NoteApplied(records, bytes int, maxTS uint64) {
	st.appliedRecords.Add(uint64(records))
	st.appliedBytes.Add(uint64(bytes))
	for {
		cur := st.appliedTS.Load()
		if maxTS <= cur || st.appliedTS.CompareAndSwap(cur, maxTS) {
			return
		}
	}
}

// AppliedTS returns the highest applied commit timestamp.
func (st *ReplState) AppliedTS() uint64 { return st.appliedTS.Load() }

// AppliedRecords returns the total records applied.
func (st *ReplState) AppliedRecords() uint64 { return st.appliedRecords.Load() }

// AppliedBytes returns the total redo bytes applied.
func (st *ReplState) AppliedBytes() uint64 { return st.appliedBytes.Load() }

// NoteContact records a frame from the leader (follower side).
func (st *ReplState) NoteContact() { st.lastContact.Store(time.Now().UnixNano()) }

// ContactAge returns how long ago the leader was last heard from.
func (st *ReplState) ContactAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - st.lastContact.Load())
}

// LagExceeded implements the follower /healthz rule: unhealthy when the
// apply lag passes the record bound or the leader has not been heard from
// within the lag bound — a dead leader must flip the replica's health so a
// load balancer stops preferring it (and an operator promotes). Always
// false for leaders and unreplicated servers.
func (st *ReplState) LagExceeded() bool {
	if st == nil || st.Role() != RoleFollower {
		return false
	}
	return st.lagRecords.Load() > st.maxLagRecords || st.ContactAge() > st.lagBound
}
