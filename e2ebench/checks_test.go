package main

import (
	"io"
	"strings"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/traverser"
)

// Small versions of the three workload shapes, so the tests replay a
// real schedule in well under a second.
var (
	smallSharded = workloadDef{
		Name:        "small-sharded",
		Recipe:      func() *grug.Recipe { return grug.HighLODRacks(2) },
		Prune:       resgraph.PruneSpec{resgraph.ALL: {"core", "node", "memory"}},
		Policy:      sched.EASY,
		Shards:      2,
		Bursts:      2,
		Load:        3,
		Span:        2_000,
		Period:      100_000,
		Jitter:      1,
		MaxNodes:    4,
		SubNodeFrac: 0.5,
	}
	smallDurable = workloadDef{
		Name:        "small-durable",
		Recipe:      func() *grug.Recipe { return grug.Quartz(2, 4, 4) },
		Prune:       resgraph.PruneSpec{resgraph.ALL: {"core", "node"}},
		Policy:      sched.EASY,
		Bursts:      2,
		Load:        3,
		Span:        5_000,
		Period:      100_000,
		Jitter:      1,
		MaxNodes:    4,
		OutageEvery: 500,
		OutageMean:  1_000,
	}
)

// replaySmall replays one round of w and returns the schedule.
func replaySmall(t *testing.T, w workloadDef) (*instance, stream, []jobRec, index) {
	t.Helper()
	in, err := build(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	st := w.generate(7, describe(in.src))
	specs := make([]*jobspec.Jobspec, len(st.Jobs))
	for i, j := range st.Jobs {
		specs[i] = j.spec()
	}
	if _, _, err := in.replay(&st, specs, newRecorder(false), -1, nil); err != nil {
		t.Fatal(err)
	}
	recs := records(in.d.Jobs())
	for _, r := range recs {
		if r.State != sched.StateCompleted {
			t.Fatalf("job %d ended %s", r.ID, r.State)
		}
	}
	return in, st, recs, newIndex(in.src)
}

// expect fails the test unless bad holds a message containing want.
func expect(t *testing.T, check string, bad []string, want string) {
	t.Helper()
	for _, m := range bad {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Errorf("%s: planted violation not reported (want %q, got %q)", check, want, bad)
}

func clone(recs []jobRec) []jobRec {
	out := make([]jobRec, len(recs))
	for i, r := range recs {
		r.Grants = append([]traverser.Grant(nil), r.Grants...)
		out[i] = r
	}
	return out
}

// firstWith returns the index of the first record with a grant of type
// typ.
func firstWith(recs []jobRec, idx index, typ string) (int, int) {
	for i, r := range recs {
		for k, g := range r.Grants {
			if idx[g.Path].typ == typ && g.Units > 0 {
				return i, k
			}
		}
	}
	return -1, -1
}

func TestChecksPassOnRealSchedules(t *testing.T) {
	for _, w := range []workloadDef{smallSharded, smallDurable} {
		b := &bench{w: w, seed: 3, workDir: t.TempDir(), out: io.Discard}
		res, err := b.run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestCapacityCatchesOverlappingGrants(t *testing.T) {
	_, _, recs, idx := replaySmall(t, smallSharded)
	if bad := checkCapacity(recs, idx); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	// A second job holding the same cores over the same window.
	dup := recs[0]
	dup.ID = 1 << 40
	expect(t, "capacity", checkCapacity(append(clone(recs), dup), idx), "exceed size")
}

func TestConformanceCatchesWrongAllocation(t *testing.T) {
	_, st, recs, idx := replaySmall(t, smallSharded)
	if bad := checkConformance(st.Jobs, recs, idx); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	bad := clone(recs)
	i, k := firstWith(bad, idx, "core")
	bad[i].Grants[k].Units++
	expect(t, "conformance", checkConformance(st.Jobs, bad, idx), "requested core=")

	// A sub-node job whose memory moved to the node's other socket.
	bad = clone(recs)
	moved := false
	for i, r := range bad {
		q := st.Jobs[r.ID-1]
		if q.Whole {
			continue
		}
		for k, g := range r.Grants {
			if idx[g.Path].typ != "memory" || g.Units == 0 {
				continue
			}
			vi := idx[g.Path]
			other := ""
			for p, o := range idx {
				if o.typ == "memory" && o.node == vi.node && o.socket != vi.socket {
					other = p
					break
				}
			}
			bad[i].Grants[k].Path = other
			moved = true
			break
		}
		if moved {
			break
		}
	}
	if !moved {
		t.Fatal("no sub-node job with memory")
	}
	expect(t, "conformance", checkConformance(st.Jobs, bad, idx), "sockets")
}

func TestTimingCatchesWrongTimes(t *testing.T) {
	_, st, recs, _ := replaySmall(t, smallSharded)
	if bad := checkTiming(st.Jobs, recs); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	bad := clone(recs)
	bad[0].End++
	expect(t, "timing", checkTiming(st.Jobs, bad), "requested")
	bad = clone(recs)
	bad[1].Start, bad[1].End = bad[1].Submit-1, bad[1].End-(bad[1].Start-bad[1].Submit+1)
	expect(t, "timing", checkTiming(st.Jobs, bad), "before its submit")
}

func TestFaultsCatchesRunOnDownNode(t *testing.T) {
	_, st, recs, idx := replaySmall(t, smallDurable)
	if len(st.Faults) == 0 {
		t.Fatal("no faults planned")
	}
	if bad := checkFaults(recs, st.Faults, idx); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	r := recs[0]
	node := idx.nodesOf(r.Grants)[0]
	plan := append(append([]outage(nil), st.Faults...), outage{Path: node, Down: r.Start + 1, Up: r.Start + 2})
	expect(t, "faults", checkFaults(recs, plan, idx), "down over")
}

func TestMetricsCatchesDisagreement(t *testing.T) {
	in, _, recs, idx := replaySmall(t, smallDurable)
	m := in.d.Metrics()
	nodes := int64(len(in.src.ByType("node")))
	if bad := checkMetrics(recs, m, idx, nodes); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	wrong := m
	wrong.MeanWait++
	expect(t, "metrics", checkMetrics(recs, wrong, idx, nodes), "mean wait")
	wrong = m
	wrong.NodeSecondsUsed++
	expect(t, "metrics", checkMetrics(recs, wrong, idx, nodes), "utilization")
	wrong = m
	wrong.Completed--
	expect(t, "metrics", checkMetrics(recs, wrong, idx, nodes), "completed")
}

func TestOwnershipCatchesSharedAndLostJobs(t *testing.T) {
	in, st, _, _ := replaySmall(t, smallSharded)
	var ids []int64
	for _, j := range st.Jobs {
		ids = append(ids, j.ID)
	}
	per := make([][]int64, in.sh.Shards())
	for k := range per {
		for id := range in.sh.ShardScheduler(k).Jobs() {
			per[k] = append(per[k], id)
		}
	}
	if bad := checkOwnership(ids, per); len(bad) != 0 {
		t.Fatalf("real schedule: %v", bad)
	}
	twice := [][]int64{append(append([]int64(nil), per[0]...), per[1][0]), per[1]}
	expect(t, "ownership", checkOwnership(ids, twice), "held by 2 shards")
	lost := [][]int64{per[0], per[1][1:]}
	expect(t, "ownership", checkOwnership(ids, lost), "held by 0 shards")
}

func TestRecoveryCatchesDivergence(t *testing.T) {
	w := smallDurable
	in, err := build(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	st := w.generate(5, describe(in.src))
	specs := make([]*jobspec.Jobspec, len(st.Jobs))
	for i, j := range st.Jobs {
		specs[i] = j.spec()
	}
	var live []jobRec
	var dir string
	atLast := func() error {
		live = records(in.flat.Jobs())
		var err error
		dir, err = in.crashCopy()
		return err
	}
	if _, _, err := in.replay(&st, specs, newRecorder(false), st.BurstEnds[0], atLast); err != nil {
		t.Fatal(err)
	}
	s, store, _, _, err := recoverFrom(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Log().Close()
	recovered := records(s.Jobs())
	if bad := checkRecovery(live, recovered); len(bad) != 0 {
		t.Fatalf("real recovery: %v", bad)
	}
	held := -1
	for i, r := range live {
		if (r.State == sched.StateRunning || r.State == sched.StateReserved) && len(r.Grants) > 0 {
			held = i
			break
		}
	}
	if held < 0 {
		t.Fatal("no job held resources at the copy")
	}
	bad := clone(recovered)
	bad[held].Grants = bad[held].Grants[1:]
	for len(bad[held].Grants) > 0 && grantKey(bad[held].Grants) == grantKey(live[held].Grants) {
		bad[held].Grants = bad[held].Grants[1:]
	}
	expect(t, "recovery", checkRecovery(live, bad), "grants differ")
	bad = clone(recovered)
	bad[0].End++
	expect(t, "recovery", checkRecovery(live, bad), "live")
	expect(t, "recovery", checkRecovery(live, recovered[1:]), "missing")
}

func TestDeterminismCatchesChangedSchedule(t *testing.T) {
	_, _, recs, idx := replaySmall(t, smallSharded)
	want := digest(recs)
	if bad := checkDeterminism(want, clone(recs)); len(bad) != 0 {
		t.Fatalf("same schedule: %v", bad)
	}
	moved := clone(recs)
	moved[len(moved)/2].Start++
	expect(t, "determinism", checkDeterminism(want, moved), "differs")
	i, k := firstWith(recs, idx, "core")
	if i < 0 {
		t.Fatal("no core grant in the schedule")
	}
	regranted := clone(recs)
	regranted[i].Grants[k].Units--
	expect(t, "determinism", checkDeterminism(want, regranted), "differs")
}
