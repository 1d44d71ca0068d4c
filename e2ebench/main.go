// Command e2ebench replays seeded job streams through the scheduler
// stack and reports end-to-end throughput, event latency, set-up cost,
// memory and schedule quality; a traced run breaks the figures down by
// layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"fluxion/internal/jobspec"
	"fluxion/internal/sched"
)

// setupReps is how many extra constructions, beside one per round, the
// set-up time is the least of.
const setupReps = 1

// minRounds is how many rounds every run replays, and the rounds the
// timing figures are taken from; more are replayed, and checked for
// determinism, while --seconds lasts.
const minRounds = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload name: quartz-conservative, highlod-sharded-easy or quartz-durable-faults")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time; whole rounds, at least three, are replayed until it is spent")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	shards := fs.Int("shards", 0, "shard count of a sharded workload (0 = the workload's own); for comparisons, not for the recorded figures")
	workers := fs.Int("match-workers", 1, "scheduler match workers; for comparisons, not for the recorded figures")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "tmp"), "directory for the WAL of the durable workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*wname)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if *shards > 0 && w.Shards > 0 {
		w.Shards = *shards
	}
	w.MatchWorkers = *workers
	runtime.GOMAXPROCS(runtime.NumCPU())
	if n := max(w.Shards, 1) * max(w.MatchWorkers, 1); n > runtime.NumCPU() {
		fmt.Fprintf(stderr, "e2ebench: %s would run %d matching goroutines but the host has %d CPUs\n", w.Name, n, runtime.NumCPU())
		return 1
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, traced: *trace == 1, workDir: *workDir, out: stdout,
		budget: time.Duration(*seconds) * time.Second}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: num_cpu=%d gomaxprocs=%d go=%s goarch=%s gc_cycles=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, readUint(gcCycles))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one run: a workload and seed, replayed in whole rounds.
type bench struct {
	w       workloadDef
	seed    int64
	traced  bool
	workDir string
	budget  time.Duration
	out     io.Writer

	st    stream
	specs []*jobspec.Jobspec
	idx   index
	sys   system

	// setup is the process CPU time of each construction, in seconds:
	// on a host that lends a varying share of its time to other guests
	// it varies less than wall time (see README.md).
	setup []float64
	// buildS and constructS are the graph-build and scheduler-construct
	// parts of each construction.
	buildS, constructS []float64
	bytesPerVertex     float64 // traced runs only
}

// Runtime metrics read around each replay.
const (
	heapAllocBytes = "/gc/heap/allocs:bytes"
	liveHeapBytes  = "/gc/heap/live:bytes"
	gcCycles       = "/gc/cycles/total:gc-cycles"
	gcCPU          = "/cpu/classes/gc/total:cpu-seconds"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// collect runs two full collections: the first moves sync.Pool contents
// to the victim cache, the second frees them, so what stays is what the
// program holds.
func collect() {
	runtime.GC()
	runtime.GC()
}

// construct builds a fresh instance after a full collection, recording
// its set-up time. The collection first leaves every construction the
// same heap to grow from, so each pays for the same collections.
func (b *bench) construct() (*instance, error) {
	collect()
	c0 := cpuTime()
	in, err := build(b.w, b.workDir)
	if err != nil {
		return nil, err
	}
	b.setup = append(b.setup, (cpuTime() - c0).Seconds())
	b.buildS = append(b.buildS, in.buildDur.Seconds())
	b.constructS = append(b.constructS, in.constructDur.Seconds())
	return in, nil
}

// roundStats is what one replayed round measured.
type roundStats struct {
	traced     bool
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	completed  int
	events     []float64
	spans      []time.Duration
	// liveHeap is the heap the instance holds after the replay: live
	// bytes after a full collection, less those live before it was
	// constructed. Measured on round 1 only (see round).
	liveHeap float64
}

func (b *bench) run() (*result, error) {
	if b.traced {
		if err := b.measureBytesPerVertex(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupReps; i++ {
		in, err := b.construct()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			b.sys = describe(in.src)
			b.idx = newIndex(in.src)
		}
		in.close()
	}
	b.st = b.w.generate(b.seed, b.sys)
	b.specs = make([]*jobspec.Jobspec, len(b.st.Jobs))
	for i, j := range b.st.Jobs {
		b.specs[i] = j.spec()
	}

	var (
		rounds  []roundStats
		first   *firstRound
		digest  string
		correct = true
		rec     *recorder
	)
	start := time.Now()
	for r := 0; ; r++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured on the same stream.
		traced := b.traced && r%2 == 1
		rr := newRecorder(traced)
		rs, fr, err := b.round(rr, r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rs)
		if traced && rec == nil {
			rec = rr
		}
		if r == 0 {
			first, digest = fr, fr.digest
			correct = fr.correct
			// Later rounds compare against the digest; the records
			// would only weigh on their heap.
			first.recs = nil
		} else if !report(b.out, check{fmt.Sprintf("determinism (round %d)", r), checkDeterminism(digest, fr.recs)}) {
			correct = false
		}
		elapsed := time.Since(start)
		done := r + 1
		if done >= minRounds && elapsed+elapsed/time.Duration(done) > b.budget {
			break
		}
	}

	res := &result{Correct: correct, Metrics: map[string]metric{}}
	for _, rs := range rounds {
		res.Attempted += len(b.st.Jobs)
		res.Failed += len(b.st.Jobs) - rs.completed
	}
	if b.traced {
		b.layerMetrics(res, rounds, first, rec)
		return res, nil
	}
	t := steadiest(rounds[:minRounds])
	jobs := float64(rounds[0].completed)
	res.Metrics["jobs_per_s"] = metric{jobs / t.wall.Seconds(), "1/s"}
	res.Metrics["cpu_ms_per_job"] = metric{t.cpu.Seconds() * 1e3 / jobs, "ms/job"}
	res.Metrics["event_p50_ms"] = metric{percentile(t.events, 0.50), "ms"}
	res.Metrics["event_p99_ms"] = metric{percentile(t.events, 0.99), "ms"}
	res.Metrics["setup_s"] = metric{slices.Min(b.setup), "s"}
	res.Metrics["live_heap_mb"] = metric{rounds[1].liveHeap / (1 << 20), "MB"}
	res.Metrics["alloc_kb_per_job"] = metric{float64(t.allocBytes) / 1024 / jobs, "KB/job"}
	res.Metrics["wait_mean_s"] = metric{first.q.WaitMean, "s"}
	res.Metrics["wait_p99_s"] = metric{first.q.WaitP99, "s"}
	res.Metrics["bsld_mean"] = metric{first.q.BsldMean, "ratio"}
	res.Metrics["core_util"] = metric{first.q.CoreUtil, "frac"}
	fmt.Fprintf(b.out, "workload: %s seed=%d rounds=%d jobs/round=%d events/round=%d advances/round=%d\n",
		b.w.Name, b.seed, len(rounds), len(b.st.Jobs), len(t.events), first.advances)
	return res, nil
}

// steady is a run's timing figures with the host's interference
// filtered out.
type steady struct {
	wall, cpu  time.Duration
	allocBytes uint64
	events     []float64
}

// steadiest combines rounds that replayed the same schedule. Every
// round makes the same calls, so time another process or the host's
// hypervisor took only ever adds: each event's latency is its least
// over the rounds, the wall time is the sum over the loop's calls of
// each call's least, and CPU time and allocation are the least of any
// round. Callers pass the first minRounds rounds, so the figures do not
// depend on how many rounds fit in the run.
func steadiest(rounds []roundStats) steady {
	t := steady{wall: rounds[0].wall, cpu: rounds[0].cpu, allocBytes: rounds[0].allocBytes,
		events: append([]float64(nil), rounds[0].events...)}
	spans := append([]time.Duration(nil), rounds[0].spans...)
	for _, rs := range rounds[1:] {
		if len(rs.events) != len(t.events) || len(rs.spans) != len(spans) {
			// Not the same schedule: the determinism check has failed
			// the run, so keep round 0's figures.
			return t
		}
		for i, v := range rs.events {
			t.events[i] = min(t.events[i], v)
		}
		for i, v := range rs.spans {
			spans[i] = min(spans[i], v)
		}
		t.cpu = min(t.cpu, rs.cpu)
		t.allocBytes = min(t.allocBytes, rs.allocBytes)
	}
	if len(rounds) > 1 {
		t.wall = 0
		for _, d := range spans {
			t.wall += d
		}
	}
	return t
}

// firstRound is what a round contributes beyond timings: its schedule
// (for the determinism check), and on the first round the correctness
// verdict, the schedule digest later rounds must reproduce, the quality
// metrics and the layer counters.
type firstRound struct {
	correct  bool
	recs     []jobRec
	digest   string
	q        quality
	recovery *recoveryStats // durable workload only
	advances int
}

// round constructs a fresh instance, replays the stream once as round
// n, and on round 0 checks the schedule. The live heap is measured on
// round 1:
// round 0 also holds the durable workload's copy of the job table at
// the crash point, which is not the program's.
func (b *bench) round(rec *recorder, n int) (roundStats, *firstRound, error) {
	first := n == 0
	var heap0 uint64
	if n == 1 {
		collect()
		heap0 = readUint(liveHeapBytes)
	}
	in, err := b.construct()
	if err != nil {
		return roundStats{}, nil, err
	}
	defer in.close()

	// The durable workload copies its WAL after the last arrival of the
	// middle burst, when the queue is full, and later recovers from it.
	var crashDir string
	var atCrash []jobRec
	var atLast func() error
	crashAfter := -1
	if in.store != nil && first {
		crashAfter = b.st.BurstEnds[len(b.st.BurstEnds)/2]
		atLast = func() error {
			atCrash = records(in.flat.Jobs())
			var err error
			crashDir, err = in.crashCopy()
			return err
		}
	}
	defer func() {
		if crashDir != "" {
			_ = os.RemoveAll(crashDir)
		}
	}()

	rs := roundStats{traced: rec.traced}
	ep0 := in.epochs()
	c0, a0, g0, gc0 := cpuTime(), readUint(heapAllocBytes), readUint(gcCycles), readFloat(gcCPU)
	wall, pauseCPU, err := in.replay(&b.st, b.specs, rec, crashAfter, atLast)
	if err != nil {
		return rs, nil, err
	}
	rs.wall = wall
	rs.events = rec.eventMs
	rs.spans = rec.spans
	rs.cpu = cpuTime() - c0 - pauseCPU
	rs.allocBytes = readUint(heapAllocBytes) - a0
	rs.gcCycles = readUint(gcCycles) - g0
	rs.gcCPU = readFloat(gcCPU) - gc0

	if n == 1 {
		collect()
		rs.liveHeap = float64(int64(readUint(liveHeapBytes)) - int64(heap0))
	}
	fr := &firstRound{correct: true, advances: rec.advances}
	recs := records(in.d.Jobs())
	for _, r := range recs {
		if r.State == sched.StateCompleted {
			rs.completed++
		}
	}
	fr.recs = recs
	fr.digest = digest(recs)
	if rec.traced {
		in.layers(rec, recs, ep0, rs)
	}
	if !first {
		return rs, fr, nil
	}
	fr.q = measureQuality(&b.st, recs, b.idx, int64(len(b.sys.nodes))*b.sys.coresPerNode)
	checks := []check{
		{"capacity", checkCapacity(recs, b.idx)},
		{"conformance", checkConformance(b.st.Jobs, recs, b.idx)},
		{"timing", checkTiming(b.st.Jobs, recs)},
		{"faults", checkFaults(recs, b.st.Faults, b.idx)},
		{"metrics", checkMetrics(recs, in.d.Metrics(), b.idx, int64(len(b.sys.nodes)))},
	}
	if in.sh != nil {
		ids := make([]int64, len(b.st.Jobs))
		for i, j := range b.st.Jobs {
			ids[i] = j.ID
		}
		per := make([][]int64, in.sh.Shards())
		for k := range per {
			for id := range in.sh.ShardScheduler(k).Jobs() {
				per[k] = append(per[k], id)
			}
		}
		checks = append(checks, check{"ownership", checkOwnership(ids, per)})
	}
	if in.store != nil {
		if crashDir == "" {
			return rs, nil, fmt.Errorf("no WAL copy was taken")
		}
		s, st, openDur, restoreDur, err := recoverFrom(b.w, crashDir)
		if err != nil {
			return rs, nil, fmt.Errorf("recovery: %w", err)
		}
		fr.recovery = &recoveryStats{open: openDur, restore: restoreDur, replayed: st.Stats().RecordsReplayed}
		_ = st.Log().Close()
		checks = append(checks, check{"recovery", checkRecovery(atCrash, records(s.Jobs()))})
	}
	for _, c := range checks {
		if !report(b.out, c) {
			fr.correct = false
		}
	}
	return rs, fr, nil
}

// check is one correctness check's verdict: its violations, if any.
type check struct {
	name string
	bad  []string
}

// report prints a check's verdict and its first violations, and
// returns whether it passed.
func report(out io.Writer, c check) bool {
	if len(c.bad) == 0 {
		fmt.Fprintf(out, "check %s: ok\n", c.name)
		return true
	}
	fmt.Fprintf(out, "check %s: FAIL (%d violations)\n", c.name, len(c.bad))
	for i, m := range c.bad {
		if i == 5 {
			fmt.Fprintf(out, "  ...\n")
			break
		}
		fmt.Fprintf(out, "  %s\n", m)
	}
	return false
}
