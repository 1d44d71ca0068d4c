package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"

	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/traverser"
)

// The checks below judge a finished schedule from the benchmark's own
// inputs (the generated requests and fault plan) and from the job
// records the scheduler reports. Each returns one message per
// violation; an empty result means the check passed.

// vinfo describes one vertex of the source graph.
type vinfo struct {
	typ    string
	size   int64
	node   string // enclosing node's path ("" above node level)
	socket string // enclosing socket's path ("" when none)
}

// index maps every vertex path of the source graph to its description.
type index map[string]vinfo

func newIndex(g *resgraph.Graph) index {
	idx := make(index, g.Len())
	var walk func(v *resgraph.Vertex, node, socket string)
	walk = func(v *resgraph.Vertex, node, socket string) {
		switch v.Type {
		case "node":
			node = v.Path()
		case "socket":
			socket = v.Path()
		}
		idx[v.Path()] = vinfo{typ: v.Type, size: v.Size, node: node, socket: socket}
		for _, c := range v.Children(resgraph.Containment) {
			walk(c, node, socket)
		}
	}
	walk(g.Root(resgraph.Containment), "", "")
	return idx
}

// jobRec is what the scheduler reports for one job.
type jobRec struct {
	ID                 int64
	State              sched.JobState
	Submit, Start, End int64
	// Grants of the job's final run (or reservation).
	Grants []traverser.Grant
}

// records snapshots a job table, ordered by job ID.
func records(jobs map[int64]*sched.Job) []jobRec {
	out := make([]jobRec, 0, len(jobs))
	for _, j := range jobs {
		r := jobRec{ID: j.ID, State: j.State, Submit: j.Submit, Start: j.StartAt, End: j.EndAt}
		if j.Alloc != nil {
			r.Grants = j.Alloc.Grants()
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// nodesOf returns the distinct nodes a job's grants lie on or under.
func (idx index) nodesOf(gs []traverser.Grant) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range gs {
		if n := idx[g.Path].node; n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// checkCapacity sweeps the completed jobs' grants over simulated time:
// at no instant may the units granted on a vertex exceed its size.
func checkCapacity(recs []jobRec, idx index) []string {
	type edge struct{ at, delta int64 }
	byPath := map[string][]edge{}
	var bad []string
	for _, r := range recs {
		if r.State != sched.StateCompleted {
			continue
		}
		for _, g := range r.Grants {
			if g.Units == 0 {
				continue
			}
			if _, ok := idx[g.Path]; !ok {
				bad = append(bad, fmt.Sprintf("job %d: grant on unknown vertex %s", r.ID, g.Path))
				continue
			}
			byPath[g.Path] = append(byPath[g.Path], edge{r.Start, g.Units}, edge{r.End, -g.Units})
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		es := byPath[p]
		// Releases sort before claims at the same instant: a span is
		// half-open, [start, end).
		sort.Slice(es, func(a, b int) bool {
			if es[a].at != es[b].at {
				return es[a].at < es[b].at
			}
			return es[a].delta < es[b].delta
		})
		used, size := int64(0), idx[p].size
		for _, e := range es {
			used += e.delta
			if used > size {
				bad = append(bad, fmt.Sprintf("vertex %s: %d units granted at t=%d exceed size %d", p, used, e.at, size))
				break
			}
		}
	}
	return bad
}

// checkConformance compares every completed job's allocation with the
// request the benchmark generated: node count, and per node the cores,
// GPUs and memory units; a sub-node job's cores and memory must also lie
// in one socket.
func checkConformance(reqs []jobReq, recs []jobRec, idx index) []string {
	byID := recIndex(recs)
	var bad []string
	for _, q := range reqs {
		r, ok := byID[q.ID]
		if !ok || r.State != sched.StateCompleted {
			continue
		}
		per := map[string]map[string]int64{}
		sockets := map[string]bool{}
		for _, g := range r.Grants {
			vi := idx[g.Path]
			if g.Units == 0 || vi.node == "" {
				continue
			}
			if per[vi.node] == nil {
				per[vi.node] = map[string]int64{}
			}
			per[vi.node][vi.typ] += g.Units
			if !q.Whole && vi.typ != "node" {
				sockets[vi.socket] = true
			}
		}
		if int64(len(per)) != q.Nodes {
			bad = append(bad, fmt.Sprintf("job %d: %d nodes granted, %d requested", q.ID, len(per), q.Nodes))
			continue
		}
		for node, units := range per {
			if units["core"] != q.Cores || units["gpu"] != q.GPUs || units["memory"] != q.MemGB {
				bad = append(bad, fmt.Sprintf("job %d: node %s granted core=%d gpu=%d memory=%d, requested core=%d gpu=%d memory=%d",
					q.ID, node, units["core"], units["gpu"], units["memory"], q.Cores, q.GPUs, q.MemGB))
			}
		}
		if !q.Whole && len(sockets) != 1 {
			bad = append(bad, fmt.Sprintf("job %d: sub-node job spread over %d sockets", q.ID, len(sockets)))
		}
	}
	return bad
}

// checkTiming checks that every completed job was submitted at its
// generated arrival, started no earlier than its submit, and ran for
// exactly its requested duration. Jobs that did not complete are the
// run's failures and are counted, not judged, here.
func checkTiming(reqs []jobReq, recs []jobRec) []string {
	byID := recIndex(recs)
	var bad []string
	for _, q := range reqs {
		r, ok := byID[q.ID]
		switch {
		case !ok || r.State != sched.StateCompleted:
		case r.Submit != q.Submit:
			bad = append(bad, fmt.Sprintf("job %d: submitted at %d, arrived at %d", q.ID, r.Submit, q.Submit))
		case r.Start < r.Submit:
			bad = append(bad, fmt.Sprintf("job %d: started at %d before its submit at %d", q.ID, r.Start, r.Submit))
		case r.End-r.Start != q.Duration:
			bad = append(bad, fmt.Sprintf("job %d: ran %ds, requested %ds", q.ID, r.End-r.Start, q.Duration))
		}
	}
	return bad
}

// checkFaults checks that no job's final run overlaps an outage of any
// node it holds, taken from the benchmark's fault plan.
func checkFaults(recs []jobRec, plan []outage, idx index) []string {
	if len(plan) == 0 {
		return nil
	}
	down := map[string][]outage{}
	for _, o := range plan {
		down[o.Path] = append(down[o.Path], o)
	}
	var bad []string
	for _, r := range recs {
		if r.State != sched.StateCompleted {
			continue
		}
		for _, n := range idx.nodesOf(r.Grants) {
			for _, o := range down[n] {
				if r.Start < o.Up && o.Down < r.End {
					bad = append(bad, fmt.Sprintf("job %d: ran [%d,%d) on %s, down over [%d,%d)", r.ID, r.Start, r.End, n, o.Down, o.Up))
				}
			}
		}
	}
	return bad
}

// checkMetrics recomputes the completed count, mean and max wait and
// node utilization from the job records and compares them with what
// the scheduler's Metrics reports.
func checkMetrics(recs []jobRec, m sched.Metrics, idx index, nodeCap int64) []string {
	completed := 0
	var waits, maxWait, used int64
	first, last := int64(math.MaxInt64), int64(0)
	for _, r := range recs {
		if r.State != sched.StateCompleted {
			continue
		}
		completed++
		w := r.Start - r.Submit
		waits += w
		if w > maxWait {
			maxWait = w
		}
		first = min(first, r.Submit)
		last = max(last, r.End)
		nodes := 0
		for _, g := range r.Grants {
			if idx[g.Path].typ == "node" {
				nodes++
			}
		}
		used += int64(nodes) * (r.End - r.Start)
	}
	var bad []string
	if completed != m.Completed {
		return append(bad, fmt.Sprintf("metrics: %d completed, records show %d", m.Completed, completed))
	}
	if completed == 0 {
		return bad
	}
	if mean := float64(waits) / float64(completed); !near(mean, m.MeanWait) {
		bad = append(bad, fmt.Sprintf("metrics: mean wait %.6g, records show %.6g", m.MeanWait, mean))
	}
	if maxWait != m.MaxWait {
		bad = append(bad, fmt.Sprintf("metrics: max wait %d, records show %d", m.MaxWait, maxWait))
	}
	util := float64(used) / float64(nodeCap*(last-first))
	if !near(util, m.Utilization()) {
		bad = append(bad, fmt.Sprintf("metrics: utilization %.6g, records show %.6g", m.Utilization(), util))
	}
	return bad
}

// checkOwnership checks that each submitted job lives in exactly one
// shard's scheduler, and that no shard holds a job never submitted.
func checkOwnership(submitted []int64, perShard [][]int64) []string {
	owners := map[int64]int{}
	for _, ids := range perShard {
		for _, id := range ids {
			owners[id]++
		}
	}
	var bad []string
	for _, id := range submitted {
		if n := owners[id]; n != 1 {
			bad = append(bad, fmt.Sprintf("job %d: held by %d shards", id, n))
		}
		delete(owners, id)
	}
	for id := range owners {
		bad = append(bad, fmt.Sprintf("job %d: held by a shard but never submitted", id))
	}
	sort.Strings(bad)
	return bad
}

// checkRecovery compares the scheduler recovered from the WAL copy with
// the live run at the instant the copy was taken: the same jobs in the
// same state with the same start and end, and the same grants wherever
// the live job held an allocation.
func checkRecovery(live, recovered []jobRec) []string {
	rec := recIndex(recovered)
	var bad []string
	if len(live) != len(recovered) {
		bad = append(bad, fmt.Sprintf("recovery: %d jobs live, %d recovered", len(live), len(recovered)))
	}
	for _, l := range live {
		r, ok := rec[l.ID]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("recovery: job %d missing", l.ID))
		case r.State != l.State || r.Start != l.Start || r.End != l.End:
			bad = append(bad, fmt.Sprintf("recovery: job %d is %s [%d,%d), live %s [%d,%d)",
				l.ID, r.State, r.Start, r.End, l.State, l.Start, l.End))
		case (l.State == sched.StateRunning || l.State == sched.StateReserved) &&
			grantKey(r.Grants) != grantKey(l.Grants):
			bad = append(bad, fmt.Sprintf("recovery: job %d grants differ from the live run", l.ID))
		}
	}
	return bad
}

// checkDeterminism compares a later round's schedule with round 0's
// digest: every round replays the same stream on a fresh instance, so
// the schedules must be identical.
func checkDeterminism(want string, recs []jobRec) []string {
	if digest(recs) != want {
		return []string{"schedule differs from round 0's"}
	}
	return nil
}

// digest renders a schedule canonically: two rounds of the same stream
// must produce the same one.
func digest(recs []jobRec) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %d %d %d %d %x\n", r.ID, r.State, r.Submit, r.Start, r.End, grantSum(r.Grants))
	}
	return string(h.Sum(nil))
}

// grantSum hashes a job's grants independently of their order: the sum
// of each grant's FNV-1a hash over its path and units. It is cheap
// enough to run on every round; grantKey renders the same content as a
// string.
func grantSum(gs []traverser.Grant) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	for _, g := range gs {
		if g.Units == 0 {
			continue
		}
		h := uint64(offset)
		for i := 0; i < len(g.Path); i++ {
			h = (h ^ uint64(g.Path[i])) * prime
		}
		sum += (h ^ uint64(g.Units)) * prime
	}
	return sum
}

func recIndex(recs []jobRec) map[int64]jobRec {
	m := make(map[int64]jobRec, len(recs))
	for _, r := range recs {
		m[r.ID] = r
	}
	return m
}

// grantKey renders grants as a canonical string, independent of order.
func grantKey(gs []traverser.Grant) string {
	parts := make([]string, 0, len(gs))
	for _, g := range gs {
		if g.Units > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", g.Path, g.Units))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
