package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
)

// shuffle_tcp is a MapReduce-style all-to-all on four TCP nodes: each of
// eight workers Puts 256 KiB and Gets all eight outputs over the data
// plane, one client in a closed loop.
const (
	shuffleWorkers = 8
	shuffleBytes   = 256 << 10
	shuffleClass   = "bench.Shuffle"
	shuffleTimeout = 60 * time.Second
)

func prepareShuffle(seed int64) (func(bool) (deployment, error), error) {
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]byte, shuffleWorkers)
	for w := range bases {
		bases[w] = make([]byte, shuffleBytes)
		rng.Read(bases[w])
	}
	return func(traced bool) (deployment, error) {
		d := &shuffleDep{bases: bases, verified: make(map[string]int)}
		reg := task.NewRegistry()
		reg.MustRegister(shuffleClass, func() task.Task { return task.Func(d.runTask) })
		c, err := bootCluster(cluster.TransportTCP, reg, traced)
		if err != nil {
			return nil, err
		}
		cl, err := api.Initialize(c.Network(), api.Options{Tracer: clientTracer(traced)})
		if err != nil {
			c.Stop()
			return nil, err
		}
		d.c, d.cl = c, cl
		return d, nil
	}, nil
}

type shuffleDep struct {
	base
	cl    *api.Client
	bases [][]byte // worker w publishes shufflePayload(bases[w], job, w)
	jobs  atomic.Int64

	mu       sync.Mutex
	verified map[string]int // CN job id -> workers that checked all outputs
}

func (d *shuffleDep) close() {
	_ = d.cl.Close()
	d.c.Stop()
}

func shuffleKey(w int) string { return "out-" + strconv.Itoa(w) }

// runTask is the worker: publish this worker's output, fetch every
// worker's output and compare each byte for byte.
func (d *shuffleDep) runTask(ctx task.Context) error {
	t0 := time.Now()
	rec := d.rec.Load()
	ps := ctx.Params()
	if len(ps) != 2 {
		return fmt.Errorf("shuffle: want 2 params, have %d", len(ps))
	}
	job, err := ps[0].Int()
	if err != nil {
		return err
	}
	w, err := ps[1].Int()
	if err != nil {
		return err
	}
	tp := time.Now()
	if err := ctx.Put(shuffleKey(w), shufflePayload(d.bases[w], int64(job), w)); err != nil {
		return err
	}
	rec.sample("dataplane.put_ms", ms(time.Since(tp)))
	gctx, cancel := context.WithTimeout(context.Background(), shuffleTimeout)
	defer cancel()
	for k := 0; k < shuffleWorkers; k++ {
		tg := time.Now()
		got, err := ctx.Get(gctx, shuffleKey(k))
		if err != nil {
			return err
		}
		rec.sample("dataplane.get_ms", ms(time.Since(tg)))
		if err := checkShufflePayload(got, d.bases[k], int64(job), k); err != nil {
			d.mark(ctx.JobID(), -1)
			return err
		}
	}
	d.mark(ctx.JobID(), 1)
	rec.sample("taskmgr.exec_ms", ms(time.Since(t0)))
	return nil
}

// mark adds delta to a job's verified-worker count; -1 poisons it.
func (d *shuffleDep) mark(jobID string, delta int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if delta < 0 {
		d.verified[jobID] = -shuffleWorkers * 2
		return
	}
	d.verified[jobID] += delta
}

// take removes and returns a job's verified-worker count.
func (d *shuffleDep) take(jobID string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.verified[jobID]
	delete(d.verified, jobID)
	return n
}

func (d *shuffleDep) warm() error {
	for i := 0; i < 3; i++ {
		if err := d.job(d.rec.Load()); err != nil && classify(err) == classCorrupt {
			return err
		}
	}
	return nil
}

// prime runs unmeasured jobs until every node's blob cache is nearly at
// its byte budget, as in a long-running deployment, so the measured phase
// sees steady-state eviction rather than cache and heap growth.
func (d *shuffleDep) prime() {
	full := func() bool {
		for _, n := range d.c.Nodes() {
			if d.c.Server(n).TaskManager().BlobCache().SizeBytes() < archive.DefaultCacheBytes*9/10 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(shuffleTimeout)
	for !full() && time.Now().Before(deadline) {
		_ = d.job(d.rec.Load())
	}
}

func (d *shuffleDep) drive(dur time.Duration, rec *recorder) {
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		_ = d.job(rec)
	}
}

func (d *shuffleDep) extra(map[string]float64) {}

// job admits one shuffle job with a single CreateTasks, runs it, and
// checks that every worker verified every output.
func (d *shuffleDep) job(rec *recorder) error {
	t0 := time.Now()
	var jt *jobTrace
	if rec.traced {
		jt = newJobTrace(t0)
	}
	err := d.runShuffle(d.jobs.Add(1), rec, jt)
	done := time.Now()
	jt.end(done)
	rec.job(t0, done, err, jt)
	return err
}

func (d *shuffleDep) runShuffle(n int64, rec *recorder, jt *jobTrace) error {
	specs := make([]*task.Spec, shuffleWorkers)
	for w := range specs {
		specs[w] = &task.Spec{
			Name: fmt.Sprintf("s%d", w), Class: shuffleClass,
			Params: []task.Param{
				{Type: task.TypeInteger, Value: strconv.FormatInt(n, 10)},
				{Type: task.TypeInteger, Value: strconv.Itoa(w)},
			},
			Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM},
		}
	}
	var job *api.Job
	if err := timed(rec, jt, "api.create_job_ms", "api.create_job", func() (err error) {
		job, err = d.cl.CreateJob(fmt.Sprintf("shuffle-%d", n), protocol.JobRequirements{})
		return err
	}); err != nil {
		return err
	}
	if jt != nil {
		jt.attach, jt.cnJob = len(jt.spans)-1, job.ID
	}
	if err := timed(rec, jt, "jobmgr.create_tasks_ms", "jobmgr.create_tasks", func() error {
		_, err := job.CreateTasks(specs, nil)
		return err
	}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), shuffleTimeout)
	defer cancel()
	started := time.Now()
	if err := timed(rec, jt, "", "api.start", func() error { return job.Start() }); err != nil {
		return err
	}
	var res *api.Result
	if err := timed(rec, jt, "", "api.wait", func() (err error) {
		res, err = job.Wait(ctx)
		return err
	}); err != nil {
		return err
	}
	rec.sample("jobmgr.start_to_done_ms", ms(time.Since(started)))
	verified := d.take(job.ID)
	switch {
	case verified < 0:
		return corrupt(fmt.Errorf("shuffle: job %s fetched a wrong output: %s %v", job.ID, res.Err, res.TaskErrs))
	case res.Failed:
		return fmt.Errorf("shuffle: job %s failed: %s %v", job.ID, res.Err, res.TaskErrs)
	case verified != shuffleWorkers:
		return corrupt(fmt.Errorf("shuffle: job %s succeeded with %d of %d workers verified", job.ID, verified, shuffleWorkers))
	}
	return nil
}
