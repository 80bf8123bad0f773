package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/wire"
)

// kv-txn: account groups of four, two accounts on each shard lane, so
// every TXN frame spans both lanes. Connection c owns the groups g with
// g%nConns == c and alone writes them.
const (
	txnCols        = 2 // (key, balance)
	txnGroups      = 1024
	groupSize      = 4
	txnWin         = 8 // TXN frames per window and connection
	initialBalance = 1_000_000
)

// accountGroups lays the groups out over the server's lane routing: group
// g holds the 2g-th and (2g+1)-th keys routed to lane 0, then the same of
// lane 1.
func accountGroups() [][]uint64 {
	set := shard.NewSet(2, func(int, *shard.Batch) uint64 { return 0 })
	defer set.Close()
	var byLane [2][]uint64
	for k := uint64(0); len(byLane[0]) < 2*txnGroups || len(byLane[1]) < 2*txnGroups; k++ {
		ln := set.Route(k)
		byLane[ln] = append(byLane[ln], k)
	}
	out := make([][]uint64, txnGroups)
	for g := range out {
		out[g] = []uint64{byLane[0][2*g], byLane[0][2*g+1], byLane[1][2*g], byLane[1][2*g+1]}
	}
	return out
}

// txnTag is what a pending TXN frame carries to its reply.
type txnTag struct {
	group      int
	transfer   bool
	a, b       int    // transfer: debited and credited account of the group
	newA, newB uint64 // their balances once the transfer commits
}

// txnLoad is one connection's model: the balances of its own groups.
type txnLoad struct {
	conn      int
	groups    [][]uint64
	rng       *rand.Rand
	bal       [][]uint64 // owned groups only
	inflight  []bool     // a transfer of this group is unanswered
	unsure    []bool     // a transfer of this group got no definite answer
	attempted uint64
	failed    uint64
	o         outcome
}

func newTxnLoads(seed int64) []*txnLoad {
	groups := accountGroups()
	out := make([]*txnLoad, nConns)
	for c := range out {
		l := &txnLoad{
			conn: c, groups: groups,
			rng:      rand.New(rand.NewSource(seed*1000 + int64(c))),
			bal:      make([][]uint64, txnGroups),
			inflight: make([]bool, txnGroups), unsure: make([]bool, txnGroups),
		}
		for g := c; g < txnGroups; g += nConns {
			l.bal[g] = []uint64{initialBalance, initialBalance, initialBalance, initialBalance}
		}
		out[c] = l
	}
	return out
}

func (l *txnLoad) fill(w *window[txnTag]) {
	for w.pending() < txnWin {
		l.attempted++
		if l.rng.Intn(2) == 0 {
			g := nConns*l.rng.Intn(txnGroups/nConns) + l.conn
			for l.inflight[g] {
				g = nConns*l.rng.Intn(txnGroups/nConns) + l.conn
			}
			t := txnTag{group: g, transfer: true, a: l.rng.Intn(2), b: 2 + l.rng.Intn(2)}
			if l.rng.Intn(2) == 0 {
				t.a, t.b = t.b, t.a
			}
			x := uint64(1 + l.rng.Intn(100))
			t.newA, t.newB = l.bal[g][t.a]-x, l.bal[g][t.b]+x
			ka, kb := l.groups[g][t.a], l.groups[g][t.b]
			l.inflight[g] = true
			w.push(wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
				{Op: wire.OpPut, Key: ka, Vals: []uint64{ka, t.newA}},
				{Op: wire.OpPut, Key: kb, Vals: []uint64{kb, t.newB}},
			}}, t)
			continue
		}
		g := l.rng.Intn(txnGroups)
		ops := make([]wire.Request, groupSize)
		for i, k := range l.groups[g] {
			ops[i] = wire.Request{Op: wire.OpGet, Key: k}
		}
		w.push(wire.Request{Op: wire.OpTxn, Ops: ops}, txnTag{group: g})
	}
}

func (l *txnLoad) done(t txnTag, _ *wire.Request, resp *wire.Response) error {
	ok := resp.Status == wire.StatusOK && resp.Kind == wire.RespBatch
	for i := range resp.Batch {
		ok = ok && resp.Batch[i].Status == wire.StatusOK
	}
	if t.transfer {
		l.inflight[t.group] = false
		if !ok || len(resp.Batch) != 2 {
			l.failed++
			l.unsure[t.group] = true
			return nil
		}
		l.bal[t.group][t.a], l.bal[t.group][t.b] = t.newA, t.newB
		return nil
	}
	if !ok {
		l.failed++
		return nil
	}
	rows := make([][]uint64, len(resp.Batch))
	for i := range resp.Batch {
		rows[i] = resp.Batch[i].Row
	}
	keys := l.groups[t.group]
	if err := checkAudit(keys, rows, groupSize*initialBalance); err != nil {
		l.o.violate("audit: %v", err)
		return nil
	}
	// Replies come in order, so every transfer of an own group sent before
	// this audit has been answered and none sent after it had run yet: the
	// audit must match the cache exactly.
	if t.group%nConns == l.conn && !l.unsure[t.group] {
		for i, k := range keys {
			if err := checkBalance(k, rows[i], l.bal[t.group][i]); err != nil {
				l.o.violate("audit: %v", err)
			}
		}
	}
	return nil
}

// preload inserts the accounts of the connection's own groups.
func (l *txnLoad) preload(c *wconn) error {
	w := &window[int]{c: c}
	for g := l.conn; g < txnGroups; g += nConns {
		for _, k := range l.groups[g] {
			w.push(wire.Request{Op: wire.OpInsert, Key: k, Vals: []uint64{k, initialBalance}}, g)
		}
		if w.pending() < preloadWin && g+nConns < txnGroups {
			continue
		}
		if err := w.round(func(g int, req *wire.Request, resp *wire.Response) error {
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("preload: key %d: %v", req.Key, resp.Status)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepAccounts reads every account after the restart: each must equal its
// owner's cache, and every group must still hold its total.
func sweepAccounts(c *wconn, loads []*txnLoad, o *outcome) error {
	groups := loads[0].groups
	rows := make([][]uint64, txnGroups*groupSize)
	w := &window[int]{c: c}
	for g := 0; g < txnGroups || w.pending() > 0; {
		for ; g < txnGroups && w.pending() < preloadWin; g++ {
			for i, k := range groups[g] {
				w.push(wire.Request{Op: wire.OpGet, Key: k}, g*groupSize+i)
			}
		}
		if err := w.round(func(idx int, req *wire.Request, resp *wire.Response) error {
			if resp.Status != wire.StatusOK {
				o.violate("sweep: account %d answered %v", req.Key, resp.Status)
				return nil
			}
			rows[idx] = resp.Row
			return nil
		}); err != nil {
			return err
		}
	}
	for g, keys := range groups {
		gr := rows[g*groupSize : (g+1)*groupSize]
		if err := checkAudit(keys, gr, groupSize*initialBalance); err != nil {
			o.violate("sweep: %v", err)
			continue
		}
		l := loads[g%nConns]
		if l.unsure[g] {
			continue
		}
		for i, k := range keys {
			if err := checkBalance(k, gr[i], l.bal[g][i]); err != nil {
				o.violate("sweep: %v", err)
			}
		}
	}
	return nil
}

// runTxn: one durable ordod; half transfers inside one account group, half
// read-only audits of a whole group, every frame spanning both lanes.
// After the load it SIGKILLs the server, restarts it and sweeps.
func runTxn(e *env) (*outcome, error) {
	dir := filepath.Join(e.dir, "n0")
	n, err := startNode(e.ordod, "ordod", dir, e.trace, serverArgs(e, dir, txnCols)...)
	if err != nil {
		return nil, err
	}
	loads := newTxnLoads(e.seed)
	conns, err := dialAll(n.addr)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	errc := make(chan error, nConns)
	for i, l := range loads {
		go func(l *txnLoad, c *wconn) { errc <- l.preload(c) }(l, conns[i])
	}
	for range loads {
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	setup := time.Since(processStart)
	var before, after counters
	var wal0, wal1 int64
	atStart, atEnd := traceHooks(e, n, &before, &after, &wal0, &wal1)
	ls := make([]load[txnTag], len(loads))
	for i, l := range loads {
		ls[i] = l
	}
	d, err := drive(e, conns, ls, nodesCPU(n), atStart, atEnd)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	for _, l := range loads {
		o.attempted += l.attempted
		o.failed += l.failed
		o.violations = append(o.violations, l.o.violations...)
	}
	if e.trace {
		if err := traceLayers(o, []*node{n}, d.e2e.p50us); err != nil {
			return nil, err
		}
	}
	killAt := time.Now()
	if err := n.restart(e.ordod, e.trace); err != nil {
		return nil, err
	}
	up, err := firstAnswer(n.addr, loads[0].groups[0][0], time.Now().Add(60*time.Second))
	if err != nil {
		return nil, err
	}
	c, err := dial(n.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := sweepAccounts(c, loads, o); err != nil {
		return nil, err
	}
	if !e.trace {
		setE2E(o, d, setup)
		return o, nil
	}
	ops := float64(d.e2e.ops)
	clientLayers(o, d)
	serverLayers(o, before, after, ops, ops)
	o.layer("wal.bytes_per_op", ratio(float64(wal1-wal0), ops, 1))
	o.layer("wal.recovery_ms", float64(up.Sub(killAt))/1e6)
	return o, microLayers(e, o, d, txnEngineTxn(loads[0].groups), nil)
}

// txnEngineTxn is kv-txn's transaction on the served engine: a two-account
// transfer or a four-account audit, half each.
func txnEngineTxn(groups [][]uint64) engineTxn {
	var keys []uint64
	for _, g := range groups {
		keys = append(keys, g...)
	}
	return engineTxn{
		proto: db.OCCOrdo, cols: txnCols, keys: keys,
		row: func(k uint64) []uint64 { return []uint64{k, initialBalance} },
		body: func(rng *rand.Rand, tx db.Tx) error {
			g := groups[rng.Intn(len(groups))]
			if rng.Intn(2) == 0 {
				a, b := g[rng.Intn(2)], g[2+rng.Intn(2)]
				if err := tx.Update(0, a, []uint64{a, initialBalance - 1}); err != nil {
					return err
				}
				return tx.Update(0, b, []uint64{b, initialBalance + 1})
			}
			for _, k := range g {
				if _, err := tx.Read(0, k); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
