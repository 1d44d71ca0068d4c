package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/workload"
)

// jobReq is one generated arrival: what the benchmark asks the scheduler
// for, kept beside the jobspec so the conformance check can compare the
// resulting allocation against the request rather than against the spec
// the program parsed.
type jobReq struct {
	ID       int64
	Submit   int64 // simulated arrival time
	Duration int64
	Nodes    int64 // node count
	Cores    int64 // cores per node
	GPUs     int64 // GPUs per node (0 = none requested)
	MemGB    int64 // memory units per node (0 = none requested)
	// Whole jobs take their nodes exclusively; sub-node jobs share a
	// node and take their cores and memory from one socket.
	Whole bool
}

// spec renders the request as a canonical jobspec.
func (j jobReq) spec() *jobspec.Jobspec {
	if j.Whole {
		with := []*jobspec.Resource{jobspec.R("core", j.Cores)}
		if j.GPUs > 0 {
			with = append(with, jobspec.R("gpu", j.GPUs))
		}
		return jobspec.New(j.Duration, jobspec.RX("node", j.Nodes, with...))
	}
	return jobspec.New(j.Duration, jobspec.R("node", 1, jobspec.R("socket", 1,
		jobspec.SlotR(1, jobspec.R("core", j.Cores), jobspec.R("memory", j.MemGB)))))
}

// outage is one node failure of the benchmark's fault plan: the node is
// down over [Down, Up).
type outage struct {
	Path     string
	Down, Up int64
}

// stream is one round's generated input.
type stream struct {
	Jobs   []jobReq
	Faults []outage
	// BurstEnds[b] is the number of jobs in bursts 0..b.
	BurstEnds []int
	// Period is the simulated time between burst starts.
	Period int64
}

// workloadDef fixes a system, a scheduler shape and a job mix.
type workloadDef struct {
	Name   string
	Recipe func() *grug.Recipe
	Prune  resgraph.PruneSpec
	Policy sched.QueuePolicy
	// Shards > 0 runs through fluxion.NewSharded with that many shards;
	// 0 runs the flat scheduler with a WAL attached.
	Shards int
	// MatchWorkers > 1 turns on the scheduler's parallel match pipeline.
	MatchWorkers int
	// Bursts is the number of overload episodes in one round. Each
	// burst is Poisson arrivals at offered load Load (requested
	// core-seconds over the system's core-seconds across the burst's
	// Span seconds), and bursts start Period seconds apart so the queue
	// drains in between: the round is a sequence of independent busy
	// periods, and its averages converge as bursts are added.
	Bursts       int
	Load         float64
	Span, Period int64
	// Jitter is how far the seed moves each arrival, as a share of the
	// burst's mean inter-arrival gap: 1 moves it by up to half the gap
	// either way.
	Jitter float64
	// MaxNodes bounds whole-node job sizes (workload.GenerateTrace).
	MaxNodes int64
	// SubNodeFrac is the share of single-socket sub-node jobs.
	SubNodeFrac float64
	// OutageEvery is the mean simulated time between node failures
	// during a burst (0 = no faults); OutageMean is the mean repair
	// time.
	OutageEvery, OutageMean int64
}

var workloads = []workloadDef{
	{
		Name:     "quartz-conservative",
		Recipe:   grug.QuartzPaper,
		Prune:    resgraph.PruneSpec{resgraph.ALL: {"core", "node"}},
		Policy:   sched.Conservative,
		Shards:   1,
		Bursts:   4,
		Load:     2,
		Span:     10_000,
		Period:   100_000,
		Jitter:   1,
		MaxNodes: 256,
	},
	{
		Name:        "highlod-sharded-easy",
		Recipe:      grug.HighLOD,
		Prune:       resgraph.PruneSpec{resgraph.ALL: {"core", "node", "memory"}},
		Policy:      sched.EASY,
		Shards:      2,
		Bursts:      6,
		Load:        2,
		Span:        10_000,
		Period:      100_000,
		Jitter:      1,
		MaxNodes:    32,
		SubNodeFrac: 0.5,
	},
	{
		Name:   "quartz-durable-faults",
		Recipe: grug.QuartzPaper,
		Prune:  resgraph.PruneSpec{resgraph.ALL: {"core", "node"}},
		Policy: sched.EASY,
		Bursts: 4,
		Load:   2,
		Span:   10_000,
		Period: 100_000,
		// This stream's mean wait depends strongly on the order of
		// close arrivals: across ten seeds it spread by 0.18-0.28
		// (interquartile range over median) at Jitter 1, and by
		// 0.08-0.19 at 1/4.
		Jitter:      0.25,
		MaxNodes:    256,
		OutageEvery: 2400,
		OutageMean:  3600,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// system summarizes the graph the generator sizes jobs against.
type system struct {
	nodes        []string // node paths, sorted
	coresPerNode int64
	gpusPerNode  int64
	coresPerSock int64
	memPerSock   int64
}

func describe(g *resgraph.Graph) system {
	var sys system
	for _, v := range g.ByType("node") {
		sys.nodes = append(sys.nodes, v.Path())
	}
	sort.Strings(sys.nodes)
	agg := g.ByType("node")[0].Aggregates()
	sys.coresPerNode, sys.gpusPerNode = agg["core"], agg["gpu"]
	if socks := g.ByType("socket"); len(socks) > 0 {
		sa := socks[0].Aggregates()
		sys.coresPerSock, sys.memPerSock = sa["core"], sa["memory"]
	}
	return sys
}

// generate builds one round's input. Each burst's jobs, their order
// and their base arrival times are drawn from the burst's index alone:
// sizes and durations by population, arrivals as a Poisson process
// conditioned on the job count over the span (sorted uniform points).
// The seed moves every arrival by up to Jitter/2 of the burst's mean
// inter-arrival gap either way, which reorders close arrivals. So seeds
// vary the exact inputs while keeping each burst's load and shape, and
// the run's figures compare across seeds. The fault plan is drawn the same way: outages from the burst's
// index, their times moved a little by the seed.
func (w workloadDef) generate(seed int64, sys system) stream {
	rng := rand.New(rand.NewSource(seed))
	st := stream{Period: w.Period}
	for b := 0; b < w.Bursts; b++ {
		popSeed := int64(b + 1)
		pop := w.population(popSeed, sys)
		base := rand.New(rand.NewSource(popSeed))
		// Normalized partial sums of exponential gaps are the sorted
		// uniform points of a Poisson process with a given count.
		sums := make([]float64, len(pop)+1)
		acc := 0.0
		for i := range sums {
			acc += base.ExpFloat64()
			sums[i] = acc
		}
		start := int64(b) * w.Period
		gap := float64(w.Span) / float64(len(pop))
		at := make([]float64, len(pop))
		for i := range pop {
			t := float64(w.Span)*sums[i]/acc + (rng.Float64()-0.5)*gap*w.Jitter
			at[i] = math.Min(math.Max(t, 0), float64(w.Span))
		}
		order := make([]int, len(pop))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
		for _, k := range order {
			j := pop[k]
			j.ID = int64(len(st.Jobs) + 1)
			j.Submit = start + int64(at[k])
			st.Jobs = append(st.Jobs, j)
		}
		if w.OutageEvery > 0 {
			st.Faults = append(st.Faults, w.faultPlan(base, rng, sys, start)...)
		}
		st.BurstEnds = append(st.BurstEnds, len(st.Jobs))
	}
	return st
}

// population draws one burst's jobs from popSeed: sizes and durations
// from workload.GenerateTrace, until their requested core-seconds reach
// Load × the system's core-seconds over Span.
func (w workloadDef) population(popSeed int64, sys system) []jobReq {
	rng := rand.New(rand.NewSource(-popSeed))
	target := w.Load * float64(int64(len(sys.nodes))*sys.coresPerNode) * float64(w.Span)
	var trace []workload.TraceJob
	var pop []jobReq
	for work := 0.0; work < target; {
		i := len(pop)
		if i == len(trace) {
			trace = workload.GenerateTrace(2*len(trace)+256, w.MaxNodes, popSeed)
		}
		j := jobReq{Duration: trace[i].Duration}
		if w.SubNodeFrac > 0 && rng.Float64() < w.SubNodeFrac {
			j.Nodes = 1
			j.Cores = 1 + rng.Int63n(sys.coresPerSock)
			j.MemGB = 1 + rng.Int63n(sys.memPerSock)
		} else {
			j.Whole = true
			j.Nodes = trace[i].Nodes
			j.Cores = sys.coresPerNode
			j.GPUs = sys.gpusPerNode
		}
		work += float64(j.Nodes*j.Cores) * float64(j.Duration)
		pop = append(pop, j)
	}
	return pop
}

// faultPlan draws one burst's node outages over its arrival span:
// failures at exponential gaps on uniformly chosen nodes, each repaired
// after an exponential time, all drawn from base. jit moves each failure
// by up to a tenth of the mean gap either way. A node is never failed
// again before its repair.
func (w workloadDef) faultPlan(base, jit *rand.Rand, sys system, start int64) []outage {
	var cands []outage
	for t := 0.0; ; {
		t += 1 + base.ExpFloat64()*float64(w.OutageEvery)
		if t >= float64(w.Span) {
			break
		}
		path := sys.nodes[base.Intn(len(sys.nodes))]
		rep := 1 + int64(math.Ceil(base.ExpFloat64()*float64(w.OutageMean)))
		at := math.Min(math.Max(t+(jit.Float64()-0.5)*0.2*float64(w.OutageEvery), 0), float64(w.Span))
		down := start + int64(at)
		cands = append(cands, outage{Path: path, Down: down, Up: down + rep})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Down < cands[b].Down })
	upAt := make(map[string]int64)
	var plan []outage
	for _, o := range cands {
		if o.Down < upAt[o.Path] {
			continue
		}
		upAt[o.Path] = o.Up
		plan = append(plan, o)
	}
	return plan
}
