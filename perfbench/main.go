// Command perfbench is the repository benchmark. Each run boots a fresh
// four-node CN cluster, drives one workload through the public API for a
// fixed time, checks every result, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1) named in
// BENCHMARK.json. The last line of standard output is one JSON object.
//
//	go run . --workload portal_xmi --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, which layer metric
// should move which end-to-end metric, and the defects the runs expose.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/discovery"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the inputs and the open-loop arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a traced phase")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, for the environment block")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// deployment is one booted workload: a cluster, its clients, and the
// workload's long-lived state.
type deployment interface {
	// warm runs the warm-up jobs, which are not measured.
	warm() error
	// drive runs measured jobs for d into rec and returns once every job
	// it started has ended.
	drive(d time.Duration, rec *recorder)
	// extra adds the workload's own per-layer figures after drive.
	extra(m map[string]float64)
	shared() *base
	close()
}

// primer is a deployment that needs conditioning before its measured
// phase beyond the timed warm-up, such as caches that a long-running
// deployment would hold full.
type primer interface{ prime() }

// workload is one benchmark scenario.
type workload struct {
	why string
	// prepare makes the inputs from the seed, before any timing, and
	// returns the function that boots one deployment on them.
	prepare func(seed int64) (boot func(traced bool) (deployment, error), err error)
}

var workloads = map[string]workload{
	"portal_xmi":        {why: "XMI submissions through the portal, open loop: portal, jobstore and transform on top of admission", prepare: preparePortal(false)},
	"portal_xmi_closed": {why: "XMI submissions through the portal, one user in a closed loop: the same layers without concurrent admission", prepare: preparePortal(true)},
	"transclosure_tcp":  {why: "the paper's Floyd job on TCP: JobManager relay of small frames, archives and a compute kernel", prepare: prepareFloyd},
	"shuffle_tcp":       {why: "all-to-all over the data plane on TCP: bulk TM-to-TM transfer, one admission per job", prepare: prepareShuffle},
	"bagoftasks_ts":     {why: "bag of tasks through one job's tuple space: Out/In and the JobManager's parked In", prepare: prepareBag},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// base is the state every deployment shares.
type base struct {
	c *cluster.Cluster
	// rec receives task-side samples; warm-up writes to a throwaway one.
	rec atomic.Pointer[recorder]
}

func (b *base) shared() *base { return b }

// bootCluster starts four nodes with the shipped defaults; only tracing
// is set: off (TraceSample -1) or on for every job.
func bootCluster(tp cluster.Transport, reg *task.Registry, traced bool) (*cluster.Cluster, error) {
	return cluster.Start(cluster.Config{Nodes: 4, Transport: tp, Registry: reg, TraceSample: sampleRate(traced)})
}

func sampleRate(traced bool) float64 {
	if traced {
		return 1
	}
	return -1
}

// clientTracer is a client's trace root: every submission traced when the
// phase is traced, none otherwise.
func clientTracer(traced bool) *trace.Tracer {
	if !traced {
		return nil
	}
	return trace.New(trace.Config{Node: "bench", Sample: 1})
}

// defaultMaxJobs is the JobManager's default job cap; a JobManager that
// does not answer discovery is counted as holding all of them.
const defaultMaxJobs = 16

// leakedSlots sums ActiveJobs over every JobManager's discovery offer
// after a phase drained, when no job should be active.
func leakedSlots(c *cluster.Cluster) (float64, error) {
	cl, err := api.Initialize(c.Network(), api.Options{})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	_, offers, err := cl.Discover(protocol.JobRequirements{})
	if err != nil && !errors.Is(err, discovery.ErrNoOffers) {
		return 0, err
	}
	active := make(map[string]int, len(offers))
	for _, o := range offers {
		active[o.Node] = o.ActiveJobs
	}
	total := 0
	for _, n := range c.Nodes() {
		if a, ok := active[n]; ok {
			total += a
		} else {
			total += defaultMaxJobs
		}
	}
	return float64(total), nil
}

// setupRepeats is how many times a --trace 0 run boots and warms a
// deployment; setup_s is the median.
const setupRepeats = 15

// phase is one measured stretch on one deployment.
type phase struct {
	setups        []time.Duration
	rec           *recorder
	before, after counters
	seg           time.Duration // segment length
	marks         []usage       // at the start and each segment boundary
	extra         map[string]float64
	self          map[string][]float64
	uncovered     float64
}

// runPhase boots `setups` deployments (closing all but the last) and
// drives the last one for d, keeping per-layer samples when layers is set.
func runPhase(boot func(bool) (deployment, error), traced, layers bool, setups int, d time.Duration) (*phase, error) {
	ph := &phase{extra: make(map[string]float64)}
	var dep deployment
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		dp, err := boot(traced)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		dp.shared().rec.Store(newRecorder(false, false))
		if err := dp.warm(); err != nil {
			dp.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		ph.setups = append(ph.setups, time.Since(t0))
		if i < setups-1 {
			dp.close()
			continue
		}
		dep = dp
	}
	defer dep.close()
	if p, ok := dep.(primer); ok {
		p.prime()
	}
	b := dep.shared()
	ph.rec = newRecorder(traced, layers)
	b.rec.Store(ph.rec)
	ph.before = snapshot(b.c)
	stop := make(chan struct{})
	marks := make(chan []usage, 1)
	go func() { marks <- markSegments(ph.rec.start, d, stop) }()
	dep.drive(d, ph.rec)
	close(stop)
	ph.marks, ph.seg = <-marks, d/segments
	ph.after = snapshot(b.c)
	leaked, err := leakedSlots(b.c)
	if err != nil {
		return nil, fmt.Errorf("leaked slots: %w", err)
	}
	ph.extra["jobmgr.leaked_slots"] = leaked
	dep.extra(ph.extra)
	if traced {
		ph.self, ph.uncovered = traceFigures(ph.rec.traces, ph.rec.taskSpans(), func(id string) []trace.Span {
			s, _ := b.c.JobTrace(id)
			return s
		})
	}
	if ph.rec.attempted() == 0 {
		return nil, errors.New("no job was attempted")
	}
	return ph, nil
}

// run executes one invocation and writes the report to w.
func run(w io.Writer, cfg config) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	boot, err := wl.prepare(cfg.seed)
	if err != nil {
		return fmt.Errorf("%s: inputs: %w", cfg.workload, err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var phases []*phase
	var values map[string]float64
	var counts map[string]int
	var specs []metricSpec
	if !cfg.trace {
		ph, err := runPhase(boot, false, false, setupRepeats, d)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.workload, err)
		}
		phases = []*phase{ph}
		values, counts = endToEndFigures(ph)
		specs = endToEnd
	} else {
		// Per-layer figures come from an untraced half; the traced half
		// gives the span breakdown and, against the first, the overhead.
		plain, err := runPhase(boot, false, true, 1, d/2)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.workload, err)
		}
		traced, err := runPhase(boot, true, true, 1, d/2)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", cfg.workload, err)
		}
		phases = []*phase{plain, traced}
		values, counts = perLayerFigures(plain, traced)
		specs = perLayer
	}
	return report(w, cfg, wl, phases, specs, values, counts)
}

// envBlock records where a run happened.
type envBlock struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func environment(cfg config) envBlock {
	return envBlock{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     kernelRelease(),
		Commit:     cfg.commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// metric is one entry of the JSON result.
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

// report prints the environment, the failure tally, one line per metric
// with its unit and sample count, and the JSON result.
func report(w io.Writer, cfg config, wl workload, phases []*phase, specs []metricSpec, values map[string]float64, counts map[string]int) error {
	env, err := json.Marshal(environment(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s: %s\n", cfg.workload, wl.why)
	fmt.Fprintf(w, "env %s\n", env)
	res := result{Metrics: make(map[string]metric, len(specs))}
	tally := make(map[string]int)
	for _, ph := range phases {
		res.Attempted += ph.rec.attempted()
		res.Failed += ph.rec.failed()
		for _, c := range failureClasses {
			tally[c] += ph.rec.failures[c]
		}
		for c, e := range ph.rec.firstErr {
			fmt.Fprintf(os.Stderr, "perfbench: first %s failure: %s\n", c, e)
		}
	}
	res.Correct = tally[classCorrupt] == 0
	fmt.Fprint(w, "failures")
	for _, c := range failureClasses {
		fmt.Fprintf(w, " %s=%d", c, tally[c])
	}
	fmt.Fprintf(w, " (of %d attempted)\n", res.Attempted)
	for _, s := range specs {
		v := values[s.name]
		fmt.Fprintf(w, "metric %-40s %14.4f %-6s n=%d\n", s.name, v, s.unit, counts[s.name])
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
