package main

import (
	"sort"
	"strings"
	"time"

	"cn/internal/trace"
)

// Traced runs combine two span sources per job: the benchmark's own spans
// around each public call it makes (kept in memory here), and the
// program's existing spans (job.submit, jm.*, tm.exec, tm.shuffle.*)
// fetched from the hosting JobManager once the phase has drained. Each
// instant of a job's wall time is charged to the deepest span covering it
// (ties go to the latest-starting span), so the per-layer self times of
// one job add up to its wall time.

// rootSpan is the benchmark span covering one job from its due time to
// its checked result; its self time is charged to the "client" layer.
const rootSpan = "bench.job"

// traceLayers are the layers trace.<layer>.self_ms reports, in order.
var traceLayers = []string{"client", "portal", "jobstore", "api", "placement", "jobmgr", "taskmgr", "dataplane", "tuplespace"}

// layerOf maps a span name to its layer. Program spans use the runtime's
// prefixes; benchmark spans are named "<layer>.<call>".
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "jm.place"):
		return "placement"
	case strings.HasPrefix(name, "jm."):
		return "jobmgr"
	case strings.HasPrefix(name, "tm.shuffle."):
		return "dataplane"
	case strings.HasPrefix(name, "tm."):
		return "taskmgr"
	case strings.HasPrefix(name, "job."):
		return "api"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		for _, l := range traceLayers {
			if l == name[:i] {
				return l
			}
		}
	}
	return "client"
}

// benchSpan is one span the benchmark recorded; parent indexes the owning
// jobTrace's spans (the root is its own parent).
type benchSpan struct {
	name       string
	parent     int
	start, end int64 // Unix nanoseconds
}

// jobTrace is one job's benchmark spans. A nil *jobTrace (untraced phase)
// ignores every call.
type jobTrace struct {
	spans  []benchSpan // spans[0] is the job's root
	attach int         // span the program's root spans hang from
	cnJob  string      // CN job whose program spans belong to this job
}

// taskSpan is a span recorded inside a benchmark task class; at analysis
// it hangs from that task's tm.exec span.
type taskSpan struct {
	cnJob, task, name string
	start, end        int64
}

func newJobTrace(start time.Time) *jobTrace {
	return &jobTrace{spans: []benchSpan{{name: rootSpan, start: start.UnixNano()}}}
}

// add records a span under parent and returns its index.
func (jt *jobTrace) add(name string, parent int, start, end time.Time) int {
	if jt == nil {
		return 0
	}
	jt.spans = append(jt.spans, benchSpan{name: name, parent: parent, start: start.UnixNano(), end: end.UnixNano()})
	return len(jt.spans) - 1
}

// end closes the root span.
func (jt *jobTrace) end(t time.Time) {
	if jt != nil {
		jt.spans[0].end = t.UnixNano()
	}
}

// timed runs fn as one public call: its duration is a sample of metric
// (when named) and a span of the job's trace.
func timed(rec *recorder, jt *jobTrace, metric, span string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if metric != "" {
		rec.sample(metric, ms(t1.Sub(t0)))
	}
	jt.add(span, 0, t0, t1)
	return err
}

// interval is a clipped span ready for the sweep.
type interval struct {
	layer      string
	depth      int
	start, end int64
	program    bool
}

// traceFigures charges every traced job's wall time to layers and returns
// the per-layer self-time samples (ms per job) and the share of all jobs'
// wall time that no program span covers. fetch returns a CN job's
// program spans.
func traceFigures(traces []*jobTrace, tasks []taskSpan, fetch func(cnJob string) []trace.Span) (map[string][]float64, float64) {
	self := make(map[string][]float64)
	cache := make(map[string][]trace.Span)
	tasksByJob := make(map[string][]taskSpan)
	for _, ts := range tasks {
		tasksByJob[ts.cnJob] = append(tasksByJob[ts.cnJob], ts)
	}
	var wall, uncovered int64
	for _, jt := range traces {
		prog, ok := cache[jt.cnJob]
		if !ok && jt.cnJob != "" {
			prog = fetch(jt.cnJob)
			cache[jt.cnJob] = prog
		}
		ivs := jobIntervals(jt, prog, tasksByJob[jt.cnJob])
		perLayer, unc := sweep(jt.spans[0].start, jt.spans[0].end, ivs)
		for _, l := range traceLayers {
			self[l] = append(self[l], float64(perLayer[l])/float64(time.Millisecond))
		}
		wall += jt.spans[0].end - jt.spans[0].start
		uncovered += unc
	}
	if wall == 0 {
		return self, 0
	}
	return self, float64(uncovered) / float64(wall)
}

// jobIntervals builds one job's span forest with depths: benchmark spans
// by their parent index, program spans by their parent ids (roots hang
// from jt.attach), task spans under their task's tm.exec span. Task
// spans outside the job's window are skipped: a bag job's workers serve
// every round of its segment.
func jobIntervals(jt *jobTrace, prog []trace.Span, tasks []taskSpan) []interval {
	benchDepth := make([]int, len(jt.spans))
	var out []interval
	for i, s := range jt.spans {
		if i > 0 {
			benchDepth[i] = benchDepth[s.parent] + 1
		}
		out = append(out, interval{layer: layerOf(s.name), depth: benchDepth[i], start: s.start, end: s.end})
	}
	byID := make(map[uint64]trace.Span, len(prog))
	for _, s := range prog {
		byID[s.ID] = s
	}
	depths := make(map[uint64]int, len(prog))
	var depthOf func(s trace.Span, hops int) int
	depthOf = func(s trace.Span, hops int) int {
		if d, ok := depths[s.ID]; ok {
			return d
		}
		d := benchDepth[jt.attach] + 1
		if p, ok := byID[s.Parent]; ok && s.Parent != s.ID && hops < len(prog) {
			d = depthOf(p, hops+1) + 1
		}
		depths[s.ID] = d
		return d
	}
	execDepth := make(map[string]int)
	for _, s := range prog {
		start := s.Start.UnixNano()
		d := depthOf(s, 0)
		if s.Name == "tm.exec" {
			execDepth[s.Task] = d
		}
		out = append(out, interval{layer: layerOf(s.Name), depth: d, start: start, end: start + int64(s.Dur), program: true})
	}
	lo, hi := jt.spans[0].start, jt.spans[0].end
	for _, ts := range tasks {
		if ts.end <= lo || ts.start >= hi {
			continue // another round of the same long-lived job
		}
		d, ok := execDepth[ts.task]
		if !ok {
			d = benchDepth[jt.attach]
		}
		out = append(out, interval{layer: layerOf(ts.name), depth: d + 1, start: ts.start, end: ts.end})
	}
	return out
}

// sweep partitions [lo, hi) among the intervals: each elementary segment
// goes to the deepest covering interval. It also returns how much of the
// window no program interval covers.
func sweep(lo, hi int64, ivs []interval) (map[string]int64, int64) {
	var pts []int64
	var live []interval
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, lo), min(iv.end, hi)
		if iv.end <= iv.start {
			continue
		}
		live = append(live, iv)
		pts = append(pts, iv.start, iv.end)
	}
	pts = append(pts, lo, hi)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	perLayer := make(map[string]int64)
	var uncovered int64
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if b <= a {
			continue
		}
		best, covered := -1, false
		for i, iv := range live {
			if iv.start > a || iv.end < b {
				continue
			}
			covered = covered || iv.program
			if best < 0 || iv.depth > live[best].depth ||
				(iv.depth == live[best].depth && iv.start > live[best].start) {
				best = i
			}
		}
		if !covered {
			uncovered += b - a
		}
		if best >= 0 {
			perLayer[live[best].layer] += b - a
		} else {
			perLayer["client"] += b - a
		}
	}
	return perLayer, uncovered
}
