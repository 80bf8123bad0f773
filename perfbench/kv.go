package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"ordo/internal/wire"
)

// kvSpec shapes a key-value workload: rows keyed 0..rows-1, connection c
// owning (and alone writing) the keys k with k%nConns == c.
type kvSpec struct {
	rows    int
	putFrac float64 // share of PUTs; the rest are GETs of uniform keys
	win     int     // requests per window and connection
}

var (
	readMostly = kvSpec{rows: 100_000, putFrac: 0.05, win: 64}
	replicated = kvSpec{rows: 16_384, putFrac: 0.5, win: 16}
)

// preloadWin is the INSERT window of the preload.
const preloadWin = 256

// kvTag is what a pending kv request carries to its reply.
type kvTag struct {
	key   uint64
	floor uint64 // owned GET: version acknowledged before it was sent
	put   bool
}

// kvLoad is one connection's model: for each owned key the last version
// sent and the last acknowledged, and whether its last write got no
// definite answer.
type kvLoad struct {
	spec      kvSpec
	conn      int
	rng       *rand.Rand
	issued    []uint64
	acked     []uint64
	inflight  []bool // a PUT of this key is unanswered; no second one is sent
	unsure    []bool
	maxToken  uint64 // highest durability token of an acknowledged PUT
	attempted uint64
	failed    uint64
	o         outcome
}

func newKVLoads(spec kvSpec, seed int64) []*kvLoad {
	out := make([]*kvLoad, nConns)
	for c := range out {
		n := spec.rows / nConns
		out[c] = &kvLoad{
			spec: spec, conn: c,
			rng:    rand.New(rand.NewSource(seed*1000 + int64(c))),
			issued: make([]uint64, n), acked: make([]uint64, n),
			inflight: make([]bool, n), unsure: make([]bool, n),
		}
	}
	return out
}

func (l *kvLoad) key(j int) uint64 { return uint64(j*nConns + l.conn) }

func (l *kvLoad) fill(w *window[kvTag]) {
	for w.pending() < l.spec.win {
		l.attempted++
		if l.rng.Float64() < l.spec.putFrac {
			j := l.rng.Intn(len(l.issued))
			for l.inflight[j] {
				j = l.rng.Intn(len(l.issued))
			}
			l.issued[j]++
			l.inflight[j] = true
			k := l.key(j)
			w.push(wire.Request{Op: wire.OpPut, Key: k, Vals: kvRow(k, l.issued[j])}, kvTag{key: k, put: true})
			continue
		}
		k := uint64(l.rng.Intn(l.spec.rows))
		t := kvTag{key: k}
		if int(k%nConns) == l.conn {
			t.floor = l.acked[k/nConns]
		}
		w.push(wire.Request{Op: wire.OpGet, Key: k}, t)
	}
}

func (l *kvLoad) done(t kvTag, req *wire.Request, resp *wire.Response) error {
	if t.put {
		j := t.key / nConns
		l.inflight[j] = false
		if resp.Status != wire.StatusOK {
			l.failed++
			l.unsure[j] = true
			return nil
		}
		l.acked[j] = req.Vals[1]
		if resp.TS > l.maxToken {
			l.maxToken = resp.TS
		}
		return nil
	}
	switch resp.Status {
	case wire.StatusOK:
		var err error
		if int(t.key%nConns) == l.conn {
			err = checkOwnedRead(t.key, resp.Row, t.floor, l.issued[t.key/nConns])
		} else {
			err = checkRowIntact(t.key, resp.Row)
		}
		if err != nil {
			l.o.violate("GET: %v", err)
		}
	case wire.StatusNotFound:
		l.o.violate("GET: key %d not found", t.key)
	default:
		l.failed++
	}
	return nil
}

// preload inserts version 1 of every owned key, one window at a time.
func (l *kvLoad) preload(c *wconn) error {
	w := &window[kvTag]{c: c}
	for j := 0; j < len(l.issued); {
		for ; j < len(l.issued) && w.pending() < preloadWin; j++ {
			k := l.key(j)
			w.push(wire.Request{Op: wire.OpInsert, Key: k, Vals: kvRow(k, 1)}, kvTag{key: k})
		}
		if err := w.round(func(t kvTag, _ *wire.Request, resp *wire.Response) error {
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("preload: key %d: %v", t.key, resp.Status)
			}
			l.issued[t.key/nConns], l.acked[t.key/nConns] = 1, 1
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweep reads every key through c and checks it against the owners'
// models. minTS > 0 sends GET_AT, which a follower holds back (NOT_YET,
// re-issued) until its watermark covers every acknowledged write.
func sweep(c *wconn, loads []*kvLoad, minTS uint64, o *outcome, who string) error {
	rows := loads[0].spec.rows
	w := &window[kvTag]{c: c}
	op := wire.OpGet
	if minTS > 0 {
		op = wire.OpGetAt
	}
	check := func(t kvTag, _ *wire.Request, resp *wire.Response) error {
		l := loads[t.key%nConns]
		j := t.key / nConns
		if resp.Status != wire.StatusOK {
			o.violate("%s sweep: key %d answered %v", who, t.key, resp.Status)
			return nil
		}
		hi := l.acked[j]
		if l.unsure[j] {
			hi = l.issued[j]
		}
		if err := checkSwept(t.key, resp.Row, l.acked[j], hi); err != nil {
			o.violate("%s sweep: %v", who, err)
		}
		return nil
	}
	deadline := time.Now().Add(drainLimit)
	for k := 0; k < rows || w.pending() > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s sweep did not finish within %v", who, drainLimit)
		}
		for ; k < rows && w.pending() < preloadWin; k++ {
			w.push(wire.Request{Op: op, Key: uint64(k), MinTS: minTS}, kvTag{key: uint64(k)})
		}
		if err := w.round(check); err != nil {
			return fmt.Errorf("%s sweep: %w", who, err)
		}
	}
	return nil
}

// kvOutcome folds the connections' counts and violations into o.
func kvOutcome(o *outcome, loads []*kvLoad) {
	for _, l := range loads {
		o.attempted += l.attempted
		o.failed += l.failed
		o.violations = append(o.violations, l.o.violations...)
	}
}

// runKVLoad preloads, drives and returns the loads and what was measured.
func runKVLoad(e *env, spec kvSpec, addr string, cpu func() (float64, error), atStart, atEnd func() error) ([]*kvLoad, driven, time.Duration, error) {
	loads := newKVLoads(spec, e.seed)
	conns, err := dialAll(addr)
	if err != nil {
		return nil, driven{}, 0, err
	}
	defer closeAll(conns)
	errc := make(chan error, nConns)
	for i, l := range loads {
		go func(l *kvLoad, c *wconn) { errc <- l.preload(c) }(l, conns[i])
	}
	for range loads {
		if err := <-errc; err != nil {
			return nil, driven{}, 0, err
		}
	}
	setup := time.Since(processStart)
	ls := make([]load[kvTag], len(loads))
	for i, l := range loads {
		ls[i] = l
	}
	d, err := drive(e, conns, ls, cpu, atStart, atEnd)
	return loads, d, setup, err
}

// runReadMostly: one durable ordod; 95% GET, 5% PUT over 100k rows.
// After the load it SIGKILLs the server, restarts it on the same WAL and
// sweeps every key against the model.
func runReadMostly(e *env) (*outcome, error) {
	n, err := startNode(e.ordod, "ordod", filepath.Join(e.dir, "n0"), e.trace, serverArgs(e, filepath.Join(e.dir, "n0"), kvCols)...)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var before, after counters
	var wal0, wal1 int64
	atStart, atEnd := traceHooks(e, n, &before, &after, &wal0, &wal1)
	loads, d, setup, err := runKVLoad(e, readMostly, n.addr, nodesCPU(n), atStart, atEnd)
	if err != nil {
		return nil, err
	}
	kvOutcome(o, loads)
	if e.trace {
		if err := traceLayers(o, []*node{n}, d.e2e.p50us); err != nil {
			return nil, err
		}
	}
	killAt := time.Now()
	if err := n.restart(e.ordod, e.trace); err != nil {
		return nil, err
	}
	up, err := firstAnswer(n.addr, 0, time.Now().Add(60*time.Second))
	if err != nil {
		return nil, err
	}
	c, err := dial(n.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := sweep(c, loads, 0, o, "restarted"); err != nil {
		return nil, err
	}
	if !e.trace {
		setE2E(o, d, setup)
		return o, nil
	}
	ops := float64(d.e2e.ops)
	clientLayers(o, d)
	serverLayers(o, before, after, ops, 0)
	o.layer("wal.bytes_per_op", ratio(float64(wal1-wal0), ops, 1))
	o.layer("wal.recovery_ms", float64(up.Sub(killAt))/1e6)
	return o, microLayers(e, o, d, kvEngineTxn(readMostly), nil)
}

// traceHooks returns the window-edge snapshots of the traced pass: the
// node's counters and its WAL directory size. Untraced passes take none.
func traceHooks(e *env, n *node, before, after *counters, wal0, wal1 *int64) (func() error, func() error) {
	if !e.trace {
		return nil, nil
	}
	walDir := filepath.Join(n.dir, "wal")
	snap := func(c *counters, w *int64) func() error {
		return func() error {
			var err error
			*c, err = snapshot(n)
			*w = dirBytes(walDir)
			return err
		}
	}
	return snap(before, wal0), snap(after, wal1)
}

// runReplicated: a two-node -failover pair (ack quorum one: a write is
// acknowledged once the follower has it durable); 50% GET, 50% PUT on the
// leader. Afterwards the follower is swept with GET_AT at the last ack
// token and the leader with GET, and neither may have changed roles.
func runReplicated(e *env) (*outcome, error) {
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	peers := strings.Join([]string{ports[0] + "@" + ports[1], ports[2] + "@" + ports[3]}, ",")
	nodes := make([]*node, 2)
	for i := range nodes {
		dir := filepath.Join(e.dir, fmt.Sprintf("n%d", i))
		args := append(serverArgs(e, dir, kvCols), "-failover", "-peers", peers,
			"-peer-index", fmt.Sprint(i), "-addr", ports[2*i+1])
		if nodes[i], err = startNode(e.ordod, fmt.Sprintf("node%d", i), dir, e.trace, args...); err != nil {
			return nil, err
		}
	}
	lead, fol := nodes[0], nodes[1]
	if err := awaitLeader(lead, 60*time.Second); err != nil {
		return nil, err
	}
	o := &outcome{}
	var lb, la, fb, fa counters
	var wal0, wal1 int64
	var atStart, atEnd func() error
	if e.trace {
		ls, le := traceHooks(e, lead, &lb, &la, &wal0, &wal1)
		atStart = func() error {
			if err := ls(); err != nil {
				return err
			}
			var err error
			fb, err = snapshot(fol)
			return err
		}
		atEnd = func() error {
			if err := le(); err != nil {
				return err
			}
			var err error
			fa, err = snapshot(fol)
			return err
		}
	}
	loads, d, setup, err := runKVLoad(e, replicated, lead.addr, nodesCPU(lead, fol), atStart, atEnd)
	if err != nil {
		return nil, err
	}
	kvOutcome(o, loads)
	if e.trace {
		if err := traceLayers(o, nodes, d.e2e.p50us); err != nil {
			return nil, err
		}
	}
	var token uint64
	for _, l := range loads {
		if l.maxToken > token {
			token = l.maxToken
		}
	}
	if token == 0 {
		o.violate("no acknowledged PUT carried a durability token")
		token = 1
	}
	if err := awaitWatermark(lead, fol, token, uint64(replicated.rows)); err != nil {
		return nil, err
	}
	for _, t := range []struct {
		n     *node
		minTS uint64
	}{{fol, token}, {lead, 0}} {
		c, err := dial(t.n.addr)
		if err != nil {
			return nil, err
		}
		err = sweep(c, loads, t.minTS, o, t.n.name)
		if err == nil {
			var st *wire.Stats
			if st, err = c.stats(); err == nil {
				if cerr := checkNoFailover(t.n.name, st.Promotions, st.Fencings); cerr != nil {
					o.violate("%v", cerr)
				}
			}
		}
		c.close()
		if err != nil {
			return nil, err
		}
	}
	if !e.trace {
		setE2E(o, d, setup)
		return o, nil
	}
	ops := float64(d.e2e.ops)
	clientLayers(o, d)
	serverLayers(o, lb, la, ops, 0)
	o.layer("wal.bytes_per_op", ratio(float64(wal1-wal0), ops, 1))
	o.layer("repl.apply_p50_us", histQuantile(fb.prom, fa.prom, "ordod_repl_apply_seconds", 0.5)*1e6)
	applied := fa.prom.sum("ordod_repl_applied_records_total") - fb.prom.sum("ordod_repl_applied_records_total")
	applies := fa.prom.sum("ordod_repl_apply_seconds_count") - fb.prom.sum("ordod_repl_apply_seconds_count")
	o.layer("repl.records_per_apply", ratio(applied, applies, 1))
	return o, microLayers(e, o, d, kvEngineTxn(replicated), nil)
}

// awaitWatermark returns once the follower serves a GET_AT at token. The
// follower's watermark trails its last applied commit by the clock
// boundary, so after the load stops it stays just below the last ack
// token; fence writes to key fence (outside the swept rows) move it past.
func awaitWatermark(lead, fol *node, token uint64, fence uint64) error {
	lc, err := dial(lead.addr)
	if err != nil {
		return err
	}
	defer lc.close()
	fc, err := dial(fol.addr)
	if err != nil {
		return err
	}
	defer fc.close()
	deadline := time.Now().Add(30 * time.Second)
	for i := uint64(1); ; i++ {
		op := wire.OpPut
		if i == 1 {
			op = wire.OpInsert
		}
		if resp, err := lc.do(&wire.Request{Op: op, Key: fence, Vals: kvRow(fence, i)}); err != nil {
			return err
		} else if resp.Status != wire.StatusOK {
			return fmt.Errorf("fence write %d: %v", i, resp.Status)
		}
		resp, err := fc.do(&wire.Request{Op: wire.OpGetAt, Key: 0, MinTS: token})
		if err != nil {
			return err
		}
		if resp.Status == wire.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower watermark did not pass the last ack token: %v", resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitLeader waits until n leads with a subscribed follower.
func awaitLeader(n *node, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		c, err := dial(n.addr)
		if err == nil {
			st, serr := c.stats()
			c.close()
			if serr == nil && st.ReplRoleCode == 1 && st.ReplFollowers >= 1 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not lead a subscribed follower within %v: %s", n.name, wait, n.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
