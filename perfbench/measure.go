package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cn/internal/cluster"
	"cn/internal/dataplane"
	"cn/internal/placement"
	"cn/internal/transport"
)

// Failure classes tallied in every report. A job that fails for a known
// defect is counted under its class, never retried or cancelled.
const (
	classPlacementStall   = "placement_stall"   // "no TaskManager offered"
	classDiscoveryTimeout = "discovery_timeout" // no JobManager answered discovery
	classMissingResult    = "missing_result"    // job ended without its result
	classOther            = "other"
	// classCorrupt marks a result the program returned as a success but
	// that fails its check; any such job makes the run incorrect.
	classCorrupt = "corrupt"
)

var failureClasses = []string{classPlacementStall, classDiscoveryTimeout, classMissingResult, classOther, classCorrupt}

// jobError is a failed job with its class.
type jobError struct {
	class string
	err   error
}

func (e *jobError) Error() string { return e.class + ": " + e.err.Error() }
func (e *jobError) Unwrap() error { return e.err }

// corrupt marks err as a wrong result accepted by the program.
func corrupt(err error) error { return &jobError{class: classCorrupt, err: err} }

// classify names the failure class of a job error from its text, which is
// the only place the program reports why a job failed.
func classify(err error) string {
	var je *jobError
	if errors.As(err, &je) {
		return je.class
	}
	s := err.Error()
	switch {
	case strings.Contains(s, "no TaskManager offered"):
		return classPlacementStall
	case strings.Contains(s, "no JobManager offers"):
		return classDiscoveryTimeout
	case strings.Contains(s, "without result"):
		return classMissingResult
	}
	return classOther
}

// recorder collects one measured phase: job outcomes, timing samples taken
// around public calls and inside the benchmark's task classes, and, in a
// traced phase, the benchmark's spans per job. Safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	traced bool
	// layers keeps the per-layer samples. It is off for end-to-end
	// phases, whose memory and CPU figures must not include the hundreds
	// of thousands of samples a run can take.
	layers   bool
	start    time.Time // phase start; jobs are binned by their start
	latMS    []float64 // per attempted job; +Inf for a failed one
	startAt  []time.Duration
	ok       int
	failures map[string]int
	samples  map[string][]float64
	traces   []*jobTrace
	tasks    []taskSpan
	firstErr map[string]string // one example error text per class
}

func newRecorder(traced, layers bool) *recorder {
	return &recorder{
		traced:   traced,
		layers:   layers,
		start:    time.Now(),
		failures: make(map[string]int),
		samples:  make(map[string][]float64),
		firstErr: make(map[string]string),
	}
}

// job records one attempted job that started (or was due) at start and
// ended at done: its latency, or its failure (err != nil).
func (r *recorder) job(start, done time.Time, err error, jt *jobTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.startAt = append(r.startAt, start.Sub(r.start))
	if err != nil {
		r.latMS = append(r.latMS, math.Inf(1))
		c := classify(err)
		r.failures[c]++
		if _, seen := r.firstErr[c]; !seen {
			r.firstErr[c] = err.Error()
		}
		return
	}
	r.ok++
	r.latMS = append(r.latMS, ms(done.Sub(start)))
	if jt != nil {
		r.traces = append(r.traces, jt)
	}
}

// sample adds one observation of a named per-layer figure, when the
// recorder keeps them.
func (r *recorder) sample(name string, v float64) {
	if !r.layers {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// taskSpan records a span from inside a benchmark task (traced phases
// only).
func (r *recorder) taskSpan(ts taskSpan) {
	if !r.traced {
		return
	}
	r.mu.Lock()
	r.tasks = append(r.tasks, ts)
	r.mu.Unlock()
}

func (r *recorder) taskSpans() []taskSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]taskSpan(nil), r.tasks...)
}

func (r *recorder) attempted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.latMS)
}

func (r *recorder) failed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.latMS) - r.ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; +Inf entries (failed jobs) sort last. NaN when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// infMS stands in for an infinite latency percentile in the JSON result
// (JSON has no infinity): the percentile landed on a failed job.
const infMS = 1e9

func finiteMS(v float64) float64 {
	if math.IsInf(v, 1) {
		return infMS
	}
	return v
}

// counters is a snapshot of everything the program already exports, plus
// the process's GC figures.
type counters struct {
	wire      transport.WireSnapshot
	place     placement.Stats
	blobs     int64
	dp        dataplane.StatsSnapshot
	fetched   int64
	gcCycles  uint32
	gcPauseNS uint64
}

func snapshot(c *cluster.Cluster) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	_, fetched := c.DataplaneBytes()
	return counters{
		wire:      c.WireStats(),
		place:     c.PlacementStats(),
		blobs:     c.BlobTransfers(),
		dp:        c.DataplaneStats(),
		fetched:   fetched,
		gcCycles:  m.NumGC,
		gcPauseNS: m.PauseTotalNs,
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// segments is how many equal stretches a measured phase is cut into; the
// end-to-end timing, throughput and cost figures are medians over them,
// so a burst of host load in one stretch does not move the run's figure.
const segments = 8

// usage is the process's CPU time and cumulative allocation at an instant.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func usageNow() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: processCPU(), alloc: m.TotalAlloc}
}

// markSegments samples usage at start and at each segment boundary of a
// phase of length d, until the last boundary or stop.
func markSegments(start time.Time, d time.Duration, stop <-chan struct{}) []usage {
	marks := []usage{usageNow()}
	for k := 1; k <= segments; k++ {
		t := time.NewTimer(time.Until(start.Add(d * time.Duration(k) / segments)))
		select {
		case <-t.C:
			marks = append(marks, usageNow())
		case <-stop:
			t.Stop()
			return marks
		}
	}
	return marks
}
