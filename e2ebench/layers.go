package main

import (
	"runtime"
	"slices"
	"time"

	"fluxion"
	"fluxion/internal/grug"
	"fluxion/internal/sched"
)

// recoveryStats is what reopening the WAL copy measured.
type recoveryStats struct {
	open, restore time.Duration
	replayed      int
}

// layers records the traced round's per-layer metrics: the timings the
// loop took around each public call, and the counters the program
// already exposes. Layers a workload does not run on report 0.
func (in *instance) layers(rec *recorder, recs []jobRec, ep0 uint64, rs roundStats) {
	m, s := in.d.Metrics(), in.d.Stats()
	put := func(name string, v float64, unit string) { rec.layer[name] = metric{v, unit} }
	jobs := float64(len(recs))
	cycles := float64(max(s.Cycles, 1))
	attempts := float64(max(s.MatchAttempts, 1))

	put("resgraph.epochs_per_cycle", float64(in.epochs()-ep0)/cycles, "1/cycle")

	var router fluxion.ShardRouterStats
	imbalance := 1.0
	if in.sh != nil {
		router = in.sh.RouterStats()
		var sum, top int64
		for k := 0; k < in.sh.Shards(); k++ {
			a := in.sh.ShardScheduler(k).Stats().MatchAttempts
			sum += a
			top = max(top, a)
		}
		if sum > 0 {
			imbalance = float64(top) * float64(in.sh.Shards()) / float64(sum)
		}
	}
	put("shard.routed", float64(router.Routed), "count")
	put("shard.rerouted", float64(router.Rerouted), "count")
	put("shard.steals", float64(router.Steals), "count")
	put("shard.attempt_imbalance", imbalance, "ratio")

	put("sched.submit_us_p50", percentile(rec.submitUs, 0.50), "us")
	put("sched.submit_us_p99", percentile(rec.submitUs, 0.99), "us")
	put("sched.submit_allocs_per_job", float64(rec.submitAllocs)/float64(max(rec.submitJobs, 1)), "allocs/job")
	put("sched.cycle_ms_p50", percentile(rec.cycleMs, 0.50), "ms")
	put("sched.cycle_ms_p99", percentile(rec.cycleMs, 0.99), "ms")
	put("sched.step_ms_p50", percentile(rec.stepMs, 0.50), "ms")
	put("sched.step_ms_p99", percentile(rec.stepMs, 0.99), "ms")
	put("sched.attempts_per_job", float64(s.MatchAttempts)/jobs, "1/job")
	put("sched.woken_per_cycle", float64(s.WokenJobs)/cycles, "1/cycle")
	put("sched.skipped_per_cycle", float64(s.SkippedJobs)/cycles, "1/cycle")
	put("sched.starts_per_attempt", float64(m.Completed+m.Requeues)/attempts, "ratio")
	var cycleWall float64
	for _, v := range rec.cycleMs {
		cycleWall += v
	}
	for _, v := range rec.stepMs {
		cycleWall += v
	}
	put("sched.nonmatch_s", cycleWall/1e3-m.TotalMatch.Seconds(), "s")
	slips := 0
	for _, r := range recs {
		if at, ok := rec.reservedAt[r.ID]; ok && r.State == sched.StateCompleted && r.Start > at {
			slips++
		}
	}
	put("sched.reservation_slips", float64(slips), "count")
	put("sched.requeues", float64(m.Requeues), "count")
	put("sched.lost_core_s", float64(m.LostCoreSeconds), "core_s")
	put("traverser.match_s", m.TotalMatch.Seconds(), "s")
	put("traverser.match_us_per_attempt", float64(m.TotalMatch.Microseconds())/attempts, "us")

	var walBytes int64
	snapMs := 0.0
	if in.store != nil {
		if err := in.store.Log().Sync(); err == nil {
			in.traceWAL(rec)
		}
		for _, n := range rec.walSegBytes {
			walBytes += n
		}
		t0 := time.Now()
		if err := in.store.Snapshot(); err == nil {
			snapMs = ms(time.Since(t0))
		}
	}
	put("wal.bytes_per_job", float64(walBytes)/jobs, "B/job")
	put("wal.snapshots", float64(len(rec.walSnaps)), "count")
	put("wal.snapshot_mb", float64(rec.walSnapMax)/(1<<20), "MB")
	put("wal.snapshot_ms", snapMs, "ms")

	put("runtime.gc_cycles", float64(rs.gcCycles), "count")
	put("runtime.gc_cpu_s", rs.gcCPU, "s")
	var top time.Duration
	for _, d := range rec.spans {
		top += d
	}
	put("bench.span_coverage", top.Seconds()/rs.wall.Seconds(), "frac")
}

// layerMetrics assembles the traced run's report: the traced round's
// layer metrics plus the run-level ones (construction split, graph
// footprint, recovery, tracing overhead).
func (b *bench) layerMetrics(res *result, rounds []roundStats, first *firstRound, rec *recorder) {
	for k, v := range rec.layer {
		res.Metrics[k] = v
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("grug.build_s", slices.Min(b.buildS), "s")
	put("shard.construct_s", slices.Min(b.constructS), "s")
	put("resgraph.bytes_per_vertex", b.bytesPerVertex, "B")

	var open, restore float64
	replayed := 0
	if r := first.recovery; r != nil {
		open, restore, replayed = r.open.Seconds(), r.restore.Seconds(), r.replayed
	}
	put("wal.open_s", open, "s")
	put("wal.replay_s", restore, "s")
	put("wal.recovery_s", open+restore, "s")
	put("wal.records_replayed", float64(replayed), "count")

	var rate [2]struct {
		jobs int
		wall time.Duration
	}
	for _, rs := range rounds {
		k := 0
		if rs.traced {
			k = 1
		}
		rate[k].jobs += rs.completed
		rate[k].wall += rs.wall
	}
	untraced := float64(rate[0].jobs) / rate[0].wall.Seconds()
	traced := float64(rate[1].jobs) / rate[1].wall.Seconds()
	put("bench.tracing_overhead_pct", (untraced/traced-1)*100, "%")
}

// measureBytesPerVertex measures the heap a freshly built graph holds,
// per vertex.
func (b *bench) measureBytesPerVertex() error {
	heap := func() uint64 {
		collect()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	g, err := grug.BuildGraph(b.w.Recipe(), 0, horizon, b.w.Prune)
	if err != nil {
		return err
	}
	h1 := heap()
	b.bytesPerVertex = float64(int64(h1)-int64(h0)) / float64(g.Len())
	runtime.KeepAlive(g)
	return nil
}
