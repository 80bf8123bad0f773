package main

import (
	"fmt"
	"math/rand"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/wire"
)

// layerUnits is every per-layer metric the traced pass prints, named by
// module. A workload that does not exercise a layer reports 0 for it.
var layerUnits = map[string]string{
	"client.latency_p99_us":      "us",
	"client.latency_samples":     "count",
	"client.reissued_per_kop":    "1/kop",
	"wire.encode_ns_per_op":      "ns",
	"wire.decode_ns_per_op":      "ns",
	"wire.bytes_per_op":          "B",
	"server.ops_per_batch":       "ops",
	"server.queue_wait_p50_us":   "us",
	"server.ack_wait_p50_us":     "us",
	"server.degraded_per_kbatch": "1/kbatch",
	"shard.ops_per_lane_batch":   "ops",
	"shard.holds_per_txn":        "holds",
	"shard.submit_wait_ns":       "ns",
	"xshard.not_yet_per_kread":   "1/kread",
	"xshard.retries_per_kread":   "1/kread",
	"db.aborts_per_kcommit":      "1/kcommit",
	"db.uncertain_per_kcmp":      "1/kcmp",
	"db.txn_ns":                  "ns",
	"core.get_time_ns":           "ns",
	"core.new_time_ns":           "ns",
	"core.cmp_time_ns":           "ns",
	"core.boundary_ns":           "ns",
	"wal.records_per_flush":      "records",
	"wal.flushes_per_kop":        "1/kop",
	"wal.fsync_p50_us":           "us",
	"wal.bytes_per_op":           "B",
	"wal.recovery_ms":            "ms",
	"repl.apply_p50_us":          "us",
	"repl.records_per_apply":     "records",
	"trace.decode_p50_us":        "us",
	"trace.queue_p50_us":         "us",
	"trace.lane_p50_us":          "us",
	"trace.commit_p50_us":        "us",
	"trace.wal_append_p50_us":    "us",
	"trace.fsync_p50_us":         "us",
	"trace.ship_p50_us":          "us",
	"trace.apply_p50_us":         "us",
	"trace.ack_p50_us":           "us",
	"trace.unattributed_p50_us":  "us",
	"trace.throughput_ops_s":     "ops/s",
}

// layer sets a per-layer metric; the name must be in layerUnits.
func (o *outcome) layer(name string, v float64) {
	u, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	o.set(name, u, v)
}

// fillLayers reports 0 for every per-layer metric the workload left unset.
func (o *outcome) fillLayers() {
	for name := range layerUnits {
		if _, ok := o.metrics[name]; !ok {
			o.layer(name, 0)
		}
	}
}

// engineTxn is a workload's transaction run by one uncontended session on
// an in-process engine, for db.txn_ns.
type engineTxn struct {
	proto db.Protocol
	cols  int
	keys  []uint64                             // the preloaded keys
	row   func(k uint64) []uint64              // the preloaded row of key k
	body  func(rng *rand.Rand, tx db.Tx) error // one transaction
}

// timeLoop runs fn n times and returns the mean ns per call.
func timeLoop(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

var sinkInt int

// microLayers times each layer's public functions on the workload's own
// inputs: the codec on the captured stream, a shard lane round trip, the
// workload's transaction on an uncontended engine session, and the Ordo
// clock calls. ord is the engine's calibrated clock (nil: calibrate one).
func microLayers(e *env, o *outcome, d driven, tx engineTxn, ord *core.Ordo) error {
	if len(d.capReqs) > 0 {
		enc, dec, err := timeCodec(d.capReqs, d.capResps)
		if err != nil {
			return err
		}
		o.layer("wire.encode_ns_per_op", enc)
		o.layer("wire.decode_ns_per_op", dec)
		o.layer("shard.submit_wait_ns", timeSubmitWait())
	}
	if ord == nil {
		var err error
		if ord, _, err = core.CalibrateHardware(core.CalibrationOptions{Runs: 200}); err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
	}
	txNS, err := timeEngineTxn(e, tx, ord)
	if err != nil {
		return err
	}
	o.layer("db.txn_ns", txNS)
	t := ord.GetTime()
	o.layer("core.get_time_ns", timeLoop(1_000_000, func(int) { t = ord.GetTime() }))
	o.layer("core.cmp_time_ns", timeLoop(1_000_000, func(i int) { sinkInt += ord.CmpTime(t, t+core.Time(i)) }))
	o.layer("core.new_time_ns", timeLoop(20_000, func(int) { t = ord.NewTime(t) }))
	o.fillLayers()
	return nil
}

// timeCodec returns the ns per op to encode and to decode one request and
// its reply, over the captured stream.
func timeCodec(reqs []wire.Request, resps []wire.Response) (enc, dec float64, err error) {
	reqPay := make([][]byte, len(reqs))
	respPay := make([][]byte, len(resps))
	for i := range reqs {
		if reqPay[i], err = wire.AppendRequest(nil, &reqs[i]); err != nil {
			return 0, 0, err
		}
		if respPay[i], err = wire.AppendResponse(nil, &resps[i]); err != nil {
			return 0, 0, err
		}
	}
	const passes = 50
	n := len(reqs)
	var buf []byte
	enc = timeLoop(passes*n, func(i int) {
		buf, _ = wire.AppendRequest(buf[:0], &reqs[i%n])
		buf, _ = wire.AppendResponse(buf[:0], &resps[i%n])
	})
	var arena wire.Arena
	var derr error
	dec = timeLoop(passes*n, func(i int) {
		arena.Reset()
		if _, err := wire.DecodeRequestArena(reqPay[i%n], &arena); err != nil {
			derr = err
		}
		if _, err := wire.DecodeResponse(respPay[i%n]); err != nil {
			derr = err
		}
	})
	return enc, dec, derr
}

// timeSubmitWait returns the ns of one Ports.Submit + Batch.Wait round
// trip to a two-lane set whose Exec does nothing.
func timeSubmitWait() float64 {
	set := shard.NewSet(2, func(int, *shard.Batch) uint64 { return 0 })
	defer set.Close()
	p := set.NewPorts()
	defer p.Close()
	b := shard.NewBatch()
	return timeLoop(200_000, func(i int) {
		if p.Submit(i&1, b) == nil {
			b.Wait()
		}
	})
}

// timeEngineTxn loads the workload's rows into a fresh engine and returns
// the ns per transaction of one uncontended session.
func timeEngineTxn(e *env, tx engineTxn, ord *core.Ordo) (float64, error) {
	d, err := db.New(tx.proto, db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: tx.cols}}}, ord)
	if err != nil {
		return 0, err
	}
	s := d.NewSession()
	for base := 0; base < len(tx.keys); base += preloadWin {
		err := db.RunWithRetry(s, 100, func(t db.Tx) error {
			for _, k := range tx.keys[base:min(base+preloadWin, len(tx.keys))] {
				if err := t.Insert(0, k, tx.row(k)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("engine preload: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	var terr error
	ns := timeLoop(50_000, func(int) {
		if err := db.RunWithRetry(s, 100, func(t db.Tx) error { return tx.body(rng, t) }); err != nil {
			terr = err
		}
	})
	return ns, terr
}

// kvEngineTxn is a kv workload's transaction: one GET or one PUT, in the
// workload's mix, on the served engine.
func kvEngineTxn(spec kvSpec) engineTxn {
	ver := uint64(1)
	keys := make([]uint64, spec.rows)
	for k := range keys {
		keys[k] = uint64(k)
	}
	return engineTxn{
		proto: db.OCCOrdo, cols: kvCols, keys: keys,
		row: func(k uint64) []uint64 { return kvRow(k, 1) },
		body: func(rng *rand.Rand, tx db.Tx) error {
			k := uint64(rng.Intn(spec.rows))
			if rng.Float64() < spec.putFrac {
				ver++
				return tx.Update(0, k, kvRow(k, ver))
			}
			_, err := tx.Read(0, k)
			return err
		},
	}
}
