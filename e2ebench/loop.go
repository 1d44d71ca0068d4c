package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fluxion/internal/jobspec"
	"fluxion/internal/sched"
)

// recorder accumulates what the replay loop measures. Event latencies
// are kept on every run; the rest only when traced.
type recorder struct {
	traced bool

	// eventMs holds one entry per event handed to the scheduler: an
	// arrival batch (its submits plus Schedule) or one Step.
	eventMs []float64
	// spans holds, in order, the duration of every top-level span:
	// events, clock advances and the fault-plan call, i.e. every call
	// the loop makes into the scheduler.
	spans []time.Duration
	// advances counts clock advances between events.
	advances int

	// Traced runs only: spans around the layers' public calls.
	submitUs     []float64
	cycleMs      []float64
	stepMs       []float64
	submitAllocs uint64
	submitJobs   int
	walSegBytes  map[string]int64
	walSnaps     map[string]bool
	walSnapMax   int64 // largest snapshot file, bytes
	// reservedAt holds the reservation start each job held right after
	// its arrival cycle.
	reservedAt map[int64]int64
	// layer collects the traced round's per-layer metrics.
	layer map[string]metric
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, walSegBytes: map[string]int64{}, walSnaps: map[string]bool{},
		reservedAt: map[int64]int64{}, layer: map[string]metric{}}
}

// mallocs returns the cumulative heap allocation count. ReadMemStats
// flushes every per-P allocation cache first, so the difference across
// one call is exact; runtime/metrics counts small objects only when a
// span is refilled and cannot attribute allocations to a single call.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay hands the stream to the scheduler as a closed loop: each call
// is made only after the previous one returned, and simulated time jumps
// straight to the next arrival or event. atLast runs once, right after
// the arrival batch that submits job number crashAfter (never when
// crashAfter < 0); the wall and CPU time it takes are excluded from the
// returned wall time and reported as pauseCPU.
func (in *instance) replay(st *stream, specs []*jobspec.Jobspec, rec *recorder, crashAfter int, atLast func() error) (wall, pauseCPU time.Duration, err error) {
	d := in.d
	jobs := st.Jobs
	begin := time.Now()
	var paused time.Duration
	if len(st.Faults) > 0 {
		t0 := time.Now()
		var ferr error
		d.Atomic(func() {
			for _, o := range st.Faults {
				if ferr = in.flat.ScheduleNodeDown(o.Down, o.Path); ferr != nil {
					return
				}
				if ferr = in.flat.ScheduleNodeUp(o.Up, o.Path); ferr != nil {
					return
				}
			}
		})
		if ferr != nil {
			return 0, 0, fmt.Errorf("fault plan: %w", ferr)
		}
		rec.span(time.Since(t0))
	}
	var batch []*sched.Job
	i := 0
	for i < len(jobs) || d.HasEvents() {
		if i < len(jobs) && jobs[i].Submit <= d.Now() {
			t0 := time.Now()
			batch = batch[:0]
			d.Atomic(func() {
				for i < len(jobs) && jobs[i].Submit <= d.Now() {
					if j := in.submit(jobs[i].ID, specs[i], rec); j != nil {
						batch = append(batch, j)
					}
					i++
				}
				if rec.traced {
					tc := time.Now()
					d.Schedule()
					rec.cycleMs = append(rec.cycleMs, ms(time.Since(tc)))
				} else {
					d.Schedule()
				}
			})
			dur := time.Since(t0)
			rec.span(dur)
			rec.eventMs = append(rec.eventMs, ms(dur))
			if rec.traced {
				for _, j := range batch {
					if j.State == sched.StateReserved && j.Alloc != nil {
						rec.reservedAt[j.ID] = j.Alloc.At
					}
				}
				in.traceWAL(rec)
			}
			if crashAfter >= 0 && i >= crashAfter {
				crashAfter = -1
				tp, cp := time.Now(), cpuTime()
				if err := atLast(); err != nil {
					return 0, 0, err
				}
				paused += time.Since(tp)
				pauseCPU += cpuTime() - cp
			}
			continue
		}
		if i < len(jobs) && (!d.HasEvents() || jobs[i].Submit < d.NextEventAt()) {
			t0 := time.Now()
			if err := d.AdvanceTo(jobs[i].Submit); err != nil {
				return 0, 0, err
			}
			rec.span(time.Since(t0))
			rec.advances++
			continue
		}
		t0 := time.Now()
		if !d.Step() {
			break
		}
		dur := time.Since(t0)
		rec.span(dur)
		rec.eventMs = append(rec.eventMs, ms(dur))
		if rec.traced {
			rec.stepMs = append(rec.stepMs, ms(dur))
			in.traceWAL(rec)
		}
	}
	return time.Since(begin) - paused, pauseCPU, nil
}

// submit hands one job to the scheduler. A rejected submit leaves the
// job uncompleted, which the run reports as failed.
func (in *instance) submit(id int64, spec *jobspec.Jobspec, rec *recorder) *sched.Job {
	if !rec.traced {
		j, _ := in.d.SubmitPriority(id, spec, 0)
		return j
	}
	m0 := mallocs()
	t0 := time.Now()
	j, _ := in.d.SubmitPriority(id, spec, 0)
	dur := time.Since(t0)
	rec.submitAllocs += mallocs() - m0
	rec.submitJobs++
	rec.submitUs = append(rec.submitUs, float64(dur.Nanoseconds())/1e3)
	return j
}

// traceWAL records, in traced runs, the size of every WAL segment and
// the name and size of every snapshot file. Segments are retired only after a
// later snapshot covers them, so polling after each event sees each
// segment's final size.
func (in *instance) traceWAL(rec *recorder) {
	if in.walDir == "" {
		return
	}
	ents, err := os.ReadDir(in.walDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case len(name) > 4 && name[len(name)-4:] == ".wal":
			if fi, err := e.Info(); err == nil && fi.Size() > rec.walSegBytes[name] {
				rec.walSegBytes[name] = fi.Size()
			}
		case len(name) > 5 && name[len(name)-5:] == ".snap":
			rec.walSnaps[name] = true
			if fi, err := e.Info(); err == nil && fi.Size() > rec.walSnapMax {
				rec.walSnapMax = fi.Size()
			}
		}
	}
}

// span records one top-level span.
func (rec *recorder) span(d time.Duration) { rec.spans = append(rec.spans, d) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
