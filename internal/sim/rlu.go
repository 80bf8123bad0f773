package sim

import (
	"ordo/internal/machine"
	"ordo/internal/topology"
)

// RLUConfig parameterizes the RLU hash-table kernel (the benchmark of
// Figures 1, 11, 12 and 16: a fixed-bucket hash table of linked lists).
type RLUConfig struct {
	Topo        *topology.Machine
	UpdateRatio float64 // fraction of operations that write (0.02, 0.40)
	Buckets     int     // default 1000
	Nodes       int     // nodes per bucket, default 100
	Ordo        bool    // RLU_ORDO instead of the logical-clock original

	// BoundaryScale multiplies the calibrated ORDO_BOUNDARY (Figure 16's
	// sensitivity sweep); 0 means 1.
	BoundaryScale float64

	// DeferN batches that many writer commits before a synchronize
	// (Figure 12's defer-based RLU); 0 disables deferral.
	DeferN int

	// LocksPerWrite is how many objects a writer locks and copies (1 for
	// the hash table; the citrus tree's relocating deletes lock several —
	// §6.4's "complex update operations").
	LocksPerWrite int

	DurationNS float64 // virtual run length; 0 means 400µs
	Seed       int64
}

// CitrusConfig returns the citrus-tree benchmark configuration of §6.4: a
// large internal BST, whose traversals walk ~log(n) nodes and whose
// updates lock and copy several nodes (successor relocation). The paper
// reports RLU_ORDO "almost 2×" over RLU on it across architectures.
func CitrusConfig(t *topology.Machine, updateRatio float64, ordo bool) RLUConfig {
	return RLUConfig{
		Topo:          t,
		UpdateRatio:   updateRatio,
		Ordo:          ordo,
		Buckets:       100_000, // tree nodes (lock pool)
		Nodes:         36,      // 2×depth: traversal walks ~18 pointer hops
		LocksPerWrite: 3,       // node + parent + successor parent
	}
}

func (c *RLUConfig) defaults() {
	if c.Buckets == 0 {
		c.Buckets = 1000
	}
	if c.Nodes == 0 {
		c.Nodes = 100
	}
	if c.BoundaryScale == 0 {
		c.BoundaryScale = 1
	}
	if c.LocksPerWrite == 0 {
		c.LocksPerWrite = 1
	}
	if c.DurationNS == 0 {
		c.DurationNS = 400_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Kernel cost constants (ns of work at the reference 2.4 GHz clock; the
// machine's GHz rescales them).
const (
	rluPerNodeNS    = 28.0 // traverse one list node (pointer-chasing)
	rluSectionNS    = 25.0 // reader lock/unlock bookkeeping
	rluCopyLines    = 2.0  // object copy at write
	rluScanPerThd   = 12.0 // quiescence scan cost per registered thread
	rluLockCheckPct = 0.08 // Ordo dereference re-checks locks (§6.4: ~8%)
)

// cpuScale converts reference-cycle work to this machine's core speed.
func cpuScale(t *topology.Machine) float64 { return 2.4 / t.GHz }

// RunRLUAt simulates the hash-table benchmark at a given thread count.
//
// The kernel follows the RLU section structure: mark the per-thread
// context line, record the clock (a load of the contended global line in
// the original; a local TSC read under Ordo), traverse the bucket, and for
// writes lock the object, copy it, advance the clock (fetch-and-add vs.
// new_time with the extra snapshot boundary of §4.1), quiesce readers and
// write back.
func RunRLUAt(cfg RLUConfig, threads int) machine.RunStats {
	cfg.defaults()
	t := cfg.Topo
	s := machine.New(t, cfg.Seed)
	scale := cpuScale(t)

	globalClock := s.NewLine()
	bucketLocks := make([]*machine.Line, cfg.Buckets)
	for i := range bucketLocks {
		bucketLocks[i] = s.NewLine()
	}
	ctx := make([]*machine.Line, t.Threads())
	for i := range ctx {
		ctx[i] = s.NewLine()
	}

	boundary := Boundary(t) * cfg.BoundaryScale
	traverse := float64(cfg.Nodes) / 2 * rluPerNodeNS * scale
	if cfg.Ordo {
		traverse *= 1 + rluLockCheckPct
	}

	mk := func(id int) machine.Kernel {
		var pendingDefer int
		var writing bool    // phase 1 pending: commit the write
		var retryWrite bool // aborted on a writer-writer conflict
		var bucket int
		var sectionClock uint64 // local clock recorded at reader_lock
		lockTargets := make([]int, 0, cfg.LocksPerWrite)
		return machine.KernelFunc(func(c *machine.Core) {
			rng := c.Rand()
			if !writing {
				// Phase 0: begin the section and traverse.
				c.Store(ctx[id], uint64(id))
				if cfg.Ordo {
					sectionClock = c.ReadTSC()
				} else {
					c.Load(globalClock)
				}
				if !retryWrite {
					bucket = rng.Intn(cfg.Buckets)
				}
				if retryWrite || rng.Float64() < cfg.UpdateRatio {
					writing = true
					retryWrite = false
				}
				c.Compute(rluSectionNS*scale + traverse)
				if !writing {
					c.Store(ctx[id], uint64(id)) // reader_unlock
					c.Done(1)
				}
				return
			}
			// Phase 1: writer commit. Shared-line and clock operations
			// lead the step (engine causality rule).
			writing = false
			lockTargets = lockTargets[:0]
			for k := 0; k < cfg.LocksPerWrite; k++ {
				target := bucket
				if k > 0 {
					// Additional locked objects (parent/successor nodes)
					// cluster near the primary one.
					target = (bucket + 1 + rng.Intn(8)) % cfg.Buckets
				}
				if !c.CompareAndSwap(bucketLocks[target], 0, uint64(id)+1) {
					// Writer-writer conflict: RLU forbids it — abort the
					// section (unlock what we took) and retry.
					for _, u := range lockTargets {
						c.Store(bucketLocks[u], 0)
					}
					retryWrite = true
					c.Store(ctx[id], uint64(id))
					return
				}
				lockTargets = append(lockTargets, target)
			}

			commit := cfg.DeferN == 0
			if cfg.DeferN > 0 {
				pendingDefer++
				if pendingDefer >= cfg.DeferN {
					pendingDefer = 0
					commit = true
				}
			}
			if commit {
				if cfg.Ordo {
					// new_time(max(localClock, get_time()) + boundary), as
					// internal/rlu commits: the clock read at commit start
					// orders the new snapshot after every reader that began
					// before the commit, and the extra boundary guards the
					// single-version snapshot (§4.1). The section's own work
					// therefore no longer absorbs the window: the commit
					// waits about two boundaries from its start.
					now := c.ReadTSC()
					c.WaitClockPast(max(sectionClock, now) + uint64(2*boundary))
				} else {
					c.FetchAdd(globalClock, 1)
				}
				// Quiescence: scan every context (sampled loads model the
				// ctx-line ping-pong, the rest is linear work), then wait
				// out the average in-flight reader.
				samples := 8
				if samples > threads {
					samples = threads
				}
				for k := 0; k < samples; k++ {
					c.Load(ctx[rng.Intn(threads)])
				}
				c.Compute(float64(threads-samples)*rluScanPerThd*scale + traverse/2)
			}
			// Copy, write back, unlock, end the section.
			c.MemoryAccess((rluCopyLines + 1) * float64(cfg.LocksPerWrite))
			for _, u := range lockTargets {
				c.Store(bucketLocks[u], 0)
			}
			c.Store(ctx[id], uint64(id))
			c.Done(1)
		})
	}
	return s.Run(threads, cfg.DurationNS, mk)
}

// RLUSweep produces one Figure 11-style curve: ops/µs versus threads.
func RLUSweep(cfg RLUConfig, steps int) Series {
	cfg.defaults()
	name := "RLU"
	if cfg.Ordo {
		name = "RLU_ORDO"
	}
	se := Series{Name: name}
	for _, n := range ThreadGrid(cfg.Topo, steps) {
		st := RunRLUAt(cfg, n)
		se.Points = append(se.Points, Point{Threads: n, Value: st.OpsPerUSec()})
	}
	return se
}
