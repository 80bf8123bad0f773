// Package wire is ordod's client/server protocol: a compact length-prefixed
// binary framing with varint-encoded payloads, designed so a pipelining
// client and a batching server agree on exactly one thing — frames arrive
// and are answered in order on each connection.
//
// A frame is a uvarint byte length followed by that many payload bytes.
// Request payloads start with an opcode byte; response payloads with a kind
// byte and a status byte. All integers are unsigned varints
// (encoding/binary's Uvarint). The protocol is deliberately free of
// connection state: any frame can be decoded in isolation, which is what
// makes the codec property-testable and fuzzable.
//
// Status codes are typed and round-trip the engine's error taxonomy:
// db.ErrConflict, db.ErrNotFound and db.ErrDuplicate each have a code, plus
// BUSY for server load-shedding and ERR for everything else. StatusOf and
// Status.Err convert in both directions.
package wire

import (
	"errors"
	"fmt"

	"ordo/internal/db"
)

// MaxFrame is the largest accepted frame payload in bytes. Frames beyond it
// are a protocol error: the bound is what lets a reader pre-validate the
// length prefix before allocating.
const MaxFrame = 1 << 20

// Limits on repeated elements inside one frame. They exist to reject
// hostile length prefixes early; all are far above what the engines serve.
const (
	// MaxCols bounds the columns of one row.
	MaxCols = 1 << 12
	// MaxTxnOps bounds the sub-operations of one TXN frame.
	MaxTxnOps = 1 << 14
	// MaxProtoName bounds the protocol-name string in a STATS response.
	MaxProtoName = 64
	// MaxStats bounds the series of one STATS response, and MaxStatName
	// each series name. A 64-lane server registers about 400 series.
	MaxStats    = 1 << 10
	MaxStatName = 128
	// MaxAddr bounds the redirect/leader address strings carried by
	// NOT_LEADER responses and replication status frames.
	MaxAddr = 256
)

// Op identifies a request operation.
type Op byte

// TraceFlag is the opcode-byte bit marking a request that carries a
// trace-ID uvarint immediately after the opcode. Requests without a
// trace encode exactly as before the flag existed, so old clients and
// old captures stay byte-identical. Anything peeking at a raw payload's
// first byte must mask with PeekOp rather than reading it directly.
const TraceFlag byte = 0x80

// PeekOp classifies a raw request payload by its first byte, masking the
// trace flag — the reader-side run classification that must not decode.
func PeekOp(payload []byte) Op {
	if len(payload) == 0 {
		return opInvalid
	}
	return Op(payload[0] &^ TraceFlag)
}

// Request opcodes.
const (
	opInvalid Op = iota
	// OpGet reads one row: table, key → status + row.
	OpGet
	// OpPut replaces one existing row: table, key, row → status.
	OpPut
	// OpInsert creates one row: table, key, row → status.
	OpInsert
	// OpDelete removes one row: table, key → status.
	OpDelete
	// OpTxn executes a batch of simple ops as one atomic transaction.
	OpTxn
	// OpStats asks the server for its counter snapshot.
	OpStats
	// OpGetAt reads one row with a freshness requirement: table, key,
	// min-timestamp → status + row. A read replica serves it only when its
	// safe-read watermark covers MinTS; otherwise it answers NOT_YET with
	// the watermark so the client can retry or fall back to the leader. A
	// leader serves it exactly like GET (its state is authoritative).
	OpGetAt
)

// String returns the opcode's wire-level name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	case OpTxn:
		return "TXN"
	case OpStats:
		return "STATS"
	case OpGetAt:
		return "GET_AT"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status is a response's typed outcome code.
type Status byte

// Response status codes.
const (
	// StatusOK reports success.
	StatusOK Status = iota
	// StatusNotFound maps db.ErrNotFound.
	StatusNotFound
	// StatusDuplicate maps db.ErrDuplicate.
	StatusDuplicate
	// StatusConflict maps db.ErrConflict: the operation lost a concurrency
	// conflict even after the server's capped retries and may be re-issued.
	StatusConflict
	// StatusBusy reports load shedding: the connection's pipeline exceeded
	// the server's bounded queue and the op was rejected without running.
	StatusBusy
	// StatusErr is any other server-side failure.
	StatusErr
	// StatusNotYet reports that a read replica's safe-read watermark has
	// not reached the GET_AT's MinTS: the replica cannot prove it has
	// applied every leader write at or below that timestamp. The response's
	// TS field carries the current watermark so the client can retry after
	// it advances or fall back to the leader.
	StatusNotYet
	// StatusNotLeader rejects a write sent to a node that is not the
	// current epoch's leader. The response's Redirect field, when
	// non-empty, names the client-facing address of the node the sender
	// believes is the leader, so a resilient client can chase leadership
	// without rescanning every endpoint.
	StatusNotLeader
	// StatusUncertain reports an ambiguous write outcome: the write is
	// durably committed on this node but the replication-ack gate timed
	// out before a follower confirmed it. The write usually survives
	// failover (it replicates as soon as a follower reconnects), but the
	// server cannot promise that yet. Clients should retry until they get
	// a definitive answer; the data-path ops are safe to re-issue (PUT and
	// DELETE are idempotent, a landed INSERT answers DUPLICATE).
	StatusUncertain
)

// String returns the status code's wire-level name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusDuplicate:
		return "DUPLICATE"
	case StatusConflict:
		return "CONFLICT"
	case StatusBusy:
		return "BUSY"
	case StatusErr:
		return "ERR"
	case StatusNotYet:
		return "NOT_YET"
	case StatusNotLeader:
		return "NOT_LEADER"
	case StatusUncertain:
		return "UNCERTAIN"
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Errors a Status maps back to when it does not correspond to a db error.
var (
	// ErrBusy is the client-side view of StatusBusy.
	ErrBusy = errors.New("wire: server busy, op shed")
	// ErrServer is the client-side view of StatusErr.
	ErrServer = errors.New("wire: server error")
	// ErrNotYet is the client-side view of StatusNotYet: the replica's
	// watermark has not covered the requested read timestamp.
	ErrNotYet = errors.New("wire: replica watermark below requested read timestamp")
	// ErrNotLeader is the client-side view of StatusNotLeader: the write
	// was sent to a node that is not the current epoch's leader.
	ErrNotLeader = errors.New("wire: not the leader")
	// ErrUncertain is the client-side view of StatusUncertain: the write
	// is durable locally but its replication was not confirmed in time,
	// so the outcome is ambiguous until a retry gets a definitive answer.
	ErrUncertain = errors.New("wire: write outcome uncertain (durable locally, replication unconfirmed)")
)

// StatusOf maps an engine error to its wire status. nil maps to StatusOK;
// unrecognized errors map to StatusErr.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, db.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, db.ErrDuplicate):
		return StatusDuplicate
	case errors.Is(err, db.ErrConflict):
		return StatusConflict
	case errors.Is(err, ErrBusy):
		return StatusBusy
	case errors.Is(err, ErrNotYet):
		return StatusNotYet
	case errors.Is(err, ErrNotLeader):
		return StatusNotLeader
	case errors.Is(err, ErrUncertain):
		return StatusUncertain
	}
	return StatusErr
}

// Err maps a status back to an error; StatusOK maps to nil. The db statuses
// return the db sentinel errors, so StatusOf(s.Err()) == s for every code.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return db.ErrNotFound
	case StatusDuplicate:
		return db.ErrDuplicate
	case StatusConflict:
		return db.ErrConflict
	case StatusBusy:
		return ErrBusy
	case StatusNotYet:
		return ErrNotYet
	case StatusNotLeader:
		return ErrNotLeader
	case StatusUncertain:
		return ErrUncertain
	}
	return ErrServer
}

// RespKind identifies a response payload's shape.
type RespKind byte

// Response kinds.
const (
	// RespEmpty carries only a status (PUT/INSERT/DELETE, shed ops).
	RespEmpty RespKind = iota
	// RespRow carries a status and one row (GET).
	RespRow
	// RespBatch carries an overall status and per-op responses (TXN).
	RespBatch
	// RespStats carries a server counter snapshot (STATS).
	RespStats
)

// String returns the kind's wire-level name.
func (k RespKind) String() string {
	switch k {
	case RespEmpty:
		return "EMPTY"
	case RespRow:
		return "ROW"
	case RespBatch:
		return "BATCH"
	case RespStats:
		return "STATS"
	}
	return fmt.Sprintf("RespKind(%d)", byte(k))
}

// Request is one decoded request frame.
type Request struct {
	Op    Op
	Table uint32
	Key   uint64
	// Vals is the row payload for PUT/INSERT.
	Vals []uint64
	// Ops holds a TXN frame's sub-operations; each must be a simple op
	// (GET/PUT/INSERT/DELETE — no nesting).
	Ops []Request
	// MinTS is GET_AT's freshness requirement: the read must reflect every
	// write with commit timestamp ≤ MinTS. Zero means "any watermark",
	// which a replica always serves. Ignored by every other op.
	MinTS uint64
	// Trace is the request's 64-bit trace ID; nonzero requests head-sample
	// themselves into the server's span rings. Carried on the wire via
	// TraceFlag on the opcode byte; zero adds no bytes. Only top-level
	// requests carry it — TXN sub-ops inherit the frame's trace.
	Trace uint64
}

// Response is one decoded response frame.
type Response struct {
	Kind   RespKind
	Status Status
	// Row is the row read by a GET; Kind RespRow distinguishes a present
	// zero-column row from no row at all.
	Row []uint64
	// Batch holds a TXN's per-op responses when the batch committed.
	Batch []Response
	// Stats is the STATS snapshot.
	Stats *Stats
	// TS is the timestamp carried by RespEmpty responses. On a durable
	// write ack it is the commit timestamp of the redo record that made the
	// write durable — the token a client hands to GET_AT for
	// read-your-writes on a replica. On NOT_YET it is the replica's current
	// safe-read watermark. Zero otherwise (non-durable servers, errors).
	TS uint64
	// Redirect is the client-facing address of the believed leader,
	// carried only by RespEmpty responses with StatusNotLeader. Empty when
	// the rejecting node does not know who leads the current epoch.
	Redirect string
}

// Stats is the server counter catalogue carried by a STATS response: the
// engine protocol's name and every integer series the server registers,
// as (series name, exact value) pairs in the server's registration order —
// the same names and values its /metrics endpoint renders. Value looks up
// any series by name; a series the server does not register (the WAL
// series of a non-durable server, the replication series of an
// unreplicated one) reads 0.
//
// The typed fields are views of the series clients read most, filled from
// Pairs by NewStats (statFields names their series); encoding writes only
// Protocol and Pairs.
type Stats struct {
	Protocol string
	Pairs    []Stat

	Commits, Aborts, Batches, BatchedOps, Busy, Degraded uint64
	ClockCmps, ClockUncertain, WALFlushes, WALRecords    uint64
	// ReplRoleCode is the numeric server.ReplRole: 0 none, 1 leader, 2
	// follower.
	ReplRoleCode, ReplFollowers, Promotions, Fencings uint64
}

// Stat is one catalogue series in a STATS response.
type Stat struct {
	Name  string
	Value uint64
}

// statFields maps each typed Stats field to the catalogue series it views.
var statFields = map[string]func(*Stats) *uint64{
	"ordod_commits_total":         func(s *Stats) *uint64 { return &s.Commits },
	"ordod_aborts_total":          func(s *Stats) *uint64 { return &s.Aborts },
	"ordod_batches_total":         func(s *Stats) *uint64 { return &s.Batches },
	"ordod_batched_ops_total":     func(s *Stats) *uint64 { return &s.BatchedOps },
	"ordod_busy_total":            func(s *Stats) *uint64 { return &s.Busy },
	"ordod_degraded_runs_total":   func(s *Stats) *uint64 { return &s.Degraded },
	"ordod_clock_cmps_total":      func(s *Stats) *uint64 { return &s.ClockCmps },
	"ordod_clock_uncertain_total": func(s *Stats) *uint64 { return &s.ClockUncertain },
	"ordod_wal_flushes_total":     func(s *Stats) *uint64 { return &s.WALFlushes },
	"ordod_wal_records_total":     func(s *Stats) *uint64 { return &s.WALRecords },
	"ordod_repl_role":             func(s *Stats) *uint64 { return &s.ReplRoleCode },
	"ordod_repl_followers":        func(s *Stats) *uint64 { return &s.ReplFollowers },
	"ordod_promotions_total":      func(s *Stats) *uint64 { return &s.Promotions },
	"ordod_fencings_total":        func(s *Stats) *uint64 { return &s.Fencings },
}

// NewStats builds a STATS body from a catalogue, filling the typed fields.
func NewStats(protocol string, pairs []Stat) *Stats {
	s := &Stats{Protocol: protocol, Pairs: pairs}
	for _, p := range pairs {
		if field, ok := statFields[p.Name]; ok {
			*field(s) = p.Value
		}
	}
	return s
}

// Value returns the named series' value, 0 when the server did not report
// it.
func (s *Stats) Value(name string) uint64 {
	for _, p := range s.Pairs {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// Simple reports whether the op is a valid simple (non-composite)
// operation — executable inside a TXN batch.
func (o Op) Simple() bool {
	switch o {
	case OpGet, OpPut, OpInsert, OpDelete:
		return true
	}
	return false
}
