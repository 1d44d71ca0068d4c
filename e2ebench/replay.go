package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fluxion"
	"fluxion/internal/durable"
	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
)

// horizon is the planner horizon of every benchmark graph, long enough
// that no reservation is clamped.
const horizon = int64(1) << 40

// retryBudget is the flat scheduler's failure-requeue bound: high
// enough that no job of the fault plan exhausts it.
const retryBudget = 1000

// snapshotEvery is the durable store's command count between automatic
// snapshots: every round writes one, and the round's command count
// (about 2050) stays clear of the second, so the count does not depend
// on the seed.
const snapshotEvery = 1500

// target is the scheduler surface the replay loop calls: both the
// public fluxion.Sharded and the flat sched.Scheduler provide it.
type target interface {
	SubmitPriority(id int64, spec *jobspec.Jobspec, priority int) (*sched.Job, error)
	Schedule()
	Step() bool
	AdvanceTo(t int64) error
	HasEvents() bool
	NextEventAt() int64
	Now() int64
	Atomic(fn func())
	Metrics() sched.Metrics
	Stats() sched.Stats
	Jobs() map[int64]*sched.Job
}

// instance is one constructed system and scheduler.
type instance struct {
	d      target
	sh     *fluxion.Sharded  // Sharded workloads
	flat   *sched.Scheduler  // flat workload
	store  *durable.Store    // flat workload
	walDir string            // flat workload
	src    *resgraph.Graph   // the graph the system was built from
	graphs []*resgraph.Graph // scheduler graphs (one per shard)

	buildDur, constructDur time.Duration
}

// build constructs the system: graph, scheduler and, on the flat
// workload, a durable store in a fresh directory under workDir.
func build(w workloadDef, workDir string) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	g, err := grug.BuildGraph(w.Recipe(), 0, horizon, w.Prune)
	if err != nil {
		return nil, err
	}
	in.src = g
	t1 := time.Now()
	in.buildDur = t1.Sub(t0)
	if w.Shards > 0 {
		sh, err := fluxion.NewSharded(w.Shards, w.Policy, fluxion.WithGraph(g), fluxion.WithMatchWorkers(w.MatchWorkers))
		if err != nil {
			return nil, err
		}
		in.sh, in.d = sh, sh
		for i := 0; i < sh.Shards(); i++ {
			in.graphs = append(in.graphs, sh.ShardGraph(i))
		}
		in.constructDur = time.Since(t1)
		return in, nil
	}
	f, s, err := newFlat(w, g)
	if err != nil {
		return nil, err
	}
	in.flat, in.d = s, s
	in.graphs = []*resgraph.Graph{g}
	in.constructDur = time.Since(t1)
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	in.walDir = dir
	st, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, err
	}
	st.Attach(f, s)
	in.store = st
	return in, nil
}

func flatSchedOpts(w workloadDef) []sched.SchedOption {
	return []sched.SchedOption{sched.WithMaxRetries(retryBudget), sched.WithMatchWorkers(w.MatchWorkers)}
}

func newFlat(w workloadDef, g *resgraph.Graph) (*fluxion.Fluxion, *sched.Scheduler, error) {
	f, err := fluxion.New(fluxion.WithGraph(g))
	if err != nil {
		return nil, nil, err
	}
	s, err := sched.New(f.Traverser(), w.Policy, flatSchedOpts(w)...)
	if err != nil {
		return nil, nil, err
	}
	return f, s, nil
}

// close releases the instance's WAL and its directory.
func (in *instance) close() {
	if in.store != nil {
		// Close the log directly: Store.Close would first write a final
		// snapshot the benchmark has no use for.
		_ = in.store.Log().Close()
		in.store = nil
	}
	if in.walDir != "" {
		_ = os.RemoveAll(in.walDir)
		in.walDir = ""
	}
}

// epochs sums the published epoch versions of the scheduler graphs.
func (in *instance) epochs() uint64 {
	var n uint64
	for _, g := range in.graphs {
		n += g.EpochVersion()
	}
	return n
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// crashCopy makes a crash-consistent copy of the live WAL: every
// appended frame is flushed and fsynced, and nothing appends while the
// files are copied.
func (in *instance) crashCopy() (string, error) {
	if err := in.store.Log().Sync(); err != nil {
		return "", fmt.Errorf("wal sync: %w", err)
	}
	dst := in.walDir + "-crash"
	return dst, copyDir(in.walDir, dst)
}

// recoverFrom reopens a WAL copy and rebuilds a live scheduler from it.
func recoverFrom(w workloadDef, dir string) (*sched.Scheduler, *durable.Store, time.Duration, time.Duration, error) {
	t0 := time.Now()
	st, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	fresh := func() (*fluxion.Fluxion, *sched.Scheduler, error) {
		g, err := grug.BuildGraph(w.Recipe(), 0, horizon, w.Prune)
		if err != nil {
			return nil, nil, err
		}
		return newFlat(w, g)
	}
	_, s, err := st.Restore(fresh, []fluxion.Option{
		fluxion.WithPruneSpec(w.Prune),
		fluxion.WithHorizon(horizon),
	}, flatSchedOpts(w))
	if err != nil {
		_ = st.Log().Close()
		return nil, nil, 0, 0, err
	}
	return s, st, t1.Sub(t0), time.Since(t1), nil
}
