package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/tsc"
)

// engine-ycsb: an in-process engine, two worker sessions, transactions of
// four ops (half reads, half read-modify-writes of vals[0]) over keys drawn
// from YCSB's zipfian distribution with its default constant 0.99. No
// network and no WAL: the Ordo clock, the commit and the conflicts that the
// skew makes do the work.
var ycsbCfg = ycsb.Config{Records: 100_000, OpsPerTxn: 4, ReadRatio: 0.5}

const (
	// ycsbProto is OCC_ORDO, ordod's engine. HEKATON_ORDO would be the MVCC
	// choice, but under this load it now and then answers "key not found"
	// for a preloaded row (about one transaction in two million), and an
	// operation that fails only sometimes cannot be counted steadily.
	ycsbProto      = db.OCCOrdo
	ycsbWorkers    = 2
	ycsbMaxRetries = 1 << 20
	// ycsbTheta is YCSB's ZIPFIAN_CONSTANT (Cooper et al., SoCC 2010). Go's
	// rand.Zipf needs an exponent above 1, so it cannot draw this skew.
	ycsbTheta = 0.99
)

// ycsbGen draws engine-ycsb's ops: keys with the zipfian generator of Gray
// et al. ("Quickly generating billion-record synthetic databases", SIGMOD
// 1994), which YCSB's ZipfianGenerator and DBx1000 use, so key k is drawn
// with probability (k+1)^-theta / zeta(n, theta). Keys are not scrambled:
// key 0 is the hottest.
type ycsbGen struct {
	rng                        *rand.Rand
	n, zetan, half, alpha, eta float64
}

func newYCSBGen(seed int64) *ycsbGen {
	n := float64(ycsbCfg.Records)
	zetan := 0.0
	for i := 1; i <= ycsbCfg.Records; i++ {
		zetan += math.Pow(float64(i), -ycsbTheta)
	}
	zeta2 := 1 + math.Pow(2, -ycsbTheta)
	return &ycsbGen{
		rng:   rand.New(rand.NewSource(seed)),
		n:     n,
		zetan: zetan,
		half:  1 + math.Pow(0.5, ycsbTheta),
		alpha: 1 / (1 - ycsbTheta),
		eta:   (1 - math.Pow(2/n, 1-ycsbTheta)) / (1 - zeta2/zetan),
	}
}

func (g *ycsbGen) key() uint64 {
	u := g.rng.Float64()
	switch uz := u * g.zetan; {
	case uz < 1:
		return 0
	case uz < g.half:
		return 1
	}
	k := uint64(g.n * math.Pow(g.eta*u-g.eta+1, g.alpha))
	return min(k, uint64(ycsbCfg.Records-1))
}

func (g *ycsbGen) isRead() bool { return g.rng.Float64() < ycsbCfg.ReadRatio }

// selfCPU returns this process's user+system CPU time.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// ycsbTxn is one drawn transaction: the keys and which ops only read.
type ycsbTxn struct {
	keys  []uint64
	reads []bool
}

func drawYCSB(g *ycsbGen, t *ycsbTxn) {
	t.keys, t.reads = t.keys[:0], t.reads[:0]
	for i := 0; i < ycsbCfg.OpsPerTxn; i++ {
		t.keys = append(t.keys, g.key())
		t.reads = append(t.reads, g.isRead())
	}
}

// runYCSBTxn executes t on tx; the returned count is its read-modify-writes.
func runYCSBTxn(tx db.Tx, t *ycsbTxn) (int, error) {
	rmw := 0
	for i, k := range t.keys {
		vals, err := tx.Read(ycsb.Table, k)
		if err != nil {
			return 0, err
		}
		if t.reads[i] {
			continue
		}
		vals[0]++
		if err := tx.Update(ycsb.Table, k, vals); err != nil {
			return 0, err
		}
		rmw++
	}
	return rmw, nil
}

// ycsbWorker is one session's closed loop.
type ycsbWorker struct {
	s         db.Session
	gen       *ycsbGen
	rec       *recorder
	attempted uint64
	failed    uint64
	rmw       uint64 // committed read-modify-writes
}

func (w *ycsbWorker) run(start, end time.Time) {
	var t ycsbTxn
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		drawYCSB(w.gen, &t)
		w.attempted++
		var n int
		t0 := time.Now()
		err := db.RunWithRetry(w.s, ycsbMaxRetries, func(tx db.Tx) error {
			var err error
			n, err = runYCSBTxn(tx, &t)
			return err
		})
		if err != nil {
			if w.failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: engine-ycsb: transaction %v failed: %v\n", t.keys, err)
			}
			w.failed++
			continue
		}
		w.rmw += uint64(n)
		if !now.Before(start) {
			done := time.Now()
			w.rec.add(done, done.Sub(t0))
		}
	}
}

// tableSum reads vals[0] of every row in one transaction.
func tableSum(s db.Session) (uint64, error) {
	var sum uint64
	err := db.RunWithRetry(s, ycsbMaxRetries, func(tx db.Tx) error {
		sum = 0
		for k := 0; k < ycsbCfg.Records; k++ {
			vals, err := tx.Read(ycsb.Table, uint64(k))
			if err != nil {
				return err
			}
			sum += vals[0]
		}
		return nil
	})
	return sum, err
}

func runYCSB(e *env) (*outcome, error) {
	ord, _, err := core.CalibrateHardware(core.CalibrationOptions{Runs: 200})
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	d, err := db.New(ycsbProto, ycsb.Schema(), ord)
	if err != nil {
		return nil, err
	}
	wl, err := ycsb.New(d, ycsbCfg)
	if err != nil {
		return nil, err
	}
	if err := wl.Load(); err != nil {
		return nil, err
	}
	initial, err := tableSum(d.NewSession())
	if err != nil {
		return nil, err
	}
	setup := time.Since(processStart)

	start := time.Now().Add(warmup)
	end := start.Add(time.Duration(e.seconds) * interval)
	workers := make([]*ycsbWorker, ycsbWorkers)
	recs := make([]*recorder, ycsbWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		recs[i] = newRecorder(start, e.seconds)
		workers[i] = &ycsbWorker{s: d.NewSession(), gen: newYCSBGen(e.seed*1000 + int64(i)), rec: recs[i]}
		wg.Add(1)
		go func(w *ycsbWorker) {
			defer wg.Done()
			w.run(start, end)
		}(workers[i])
	}
	cs := sampleCPU(start, e.seconds, selfCPU)
	wg.Wait()
	sum, err := summarize(merged(recs), cs)
	if err != nil {
		return nil, err
	}

	o := &outcome{}
	var rmw, commits, aborts, cmps, unc uint64
	for _, w := range workers {
		o.attempted += w.attempted
		o.failed += w.failed
		rmw += w.rmw
		c, a := w.s.Stats()
		commits, aborts = commits+c, aborts+a
		if ch, ok := w.s.(db.ClockHealth); ok {
			c, u := ch.ClockStats()
			cmps, unc = cmps+c, unc+u
		}
	}
	got, err := tableSum(d.NewSession())
	if err != nil {
		return nil, err
	}
	if err := checkYCSBSum(initial, rmw, got); err != nil {
		o.violate("%v", err)
	}
	if !e.trace {
		setE2E(o, driven{e2e: sum}, setup)
		return o, nil
	}
	o.layer("client.latency_p99_us", sum.p99us)
	o.layer("client.latency_samples", float64(sum.samples))
	o.layer("client.reissued_per_kop", ratio(float64(aborts), float64(commits), 1e3))
	o.layer("trace.throughput_ops_s", sum.throughput)
	o.layer("db.aborts_per_kcommit", ratio(float64(aborts), float64(commits), 1e3))
	o.layer("db.uncertain_per_kcmp", ratio(float64(unc), float64(cmps), 1e3))
	if hz := tsc.Frequency(); hz != 0 {
		o.layer("core.boundary_ns", float64(ord.Boundary())/float64(hz)*1e9)
	}
	return o, microLayers(e, o, driven{}, ycsbEngineTxn(e.seed), ord)
}

// ycsbEngineTxn is engine-ycsb's transaction for db.txn_ns.
func ycsbEngineTxn(seed int64) engineTxn {
	keys := make([]uint64, ycsbCfg.Records)
	for k := range keys {
		keys[k] = uint64(k)
	}
	gen := newYCSBGen(seed)
	var t ycsbTxn
	return engineTxn{
		proto: ycsbProto, cols: ycsb.Cols, keys: keys,
		row: func(k uint64) []uint64 { return make([]uint64, ycsb.Cols) },
		body: func(_ *rand.Rand, tx db.Tx) error {
			drawYCSB(gen, &t)
			_, err := runYCSBTxn(tx, &t)
			return err
		},
	}
}
