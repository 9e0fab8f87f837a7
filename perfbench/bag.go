package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// bagoftasks_ts runs long-lived jobs of four workers on four in-memory
// nodes, measured in closed-loop rounds: the client Outs 64 items, the
// workers In an item and Out its answer, the client Ins all 64 answers.
// Each segment of a run gets its own job, so the median over segments
// spans several placements.
const (
	bagWorkers      = 4
	bagItems        = 64
	bagItemSets     = 64 // distinct seeded item sets a run cycles through
	bagClass        = "bench.BagWorker"
	bagRoundTimeout = 10 * time.Second
)

func prepareBag(seed int64) (func(bool) (deployment, error), error) {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]int, bagItemSets)
	for r := range items {
		items[r] = make([]int, bagItems)
		for i := range items[r] {
			items[r][i] = rng.Intn(1 << 20)
		}
	}
	return func(traced bool) (deployment, error) {
		d := &bagDep{items: items}
		reg := task.NewRegistry()
		reg.MustRegister(bagClass, func() task.Task { return task.Func(d.runWorker) })
		c, err := bootCluster(cluster.TransportMem, reg, traced)
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

type bagDep struct {
	base
	cl    *api.Client
	items [][]int
	job   *api.Job
	space *api.Space
	round int
	// opsPerRound is the JobManager's tuple-space op count per measured
	// round.
	opsPerRound float64
}

func (d *bagDep) close() {
	_ = d.cl.Close()
	d.c.Stop()
}

var itemTemplate = tuplespace.Template{"item", tuplespace.TypeOf(0), tuplespace.TypeOf(0), tuplespace.TypeOf(0)}

// runWorker takes items until the poison pill (round -1) or the space
// closes, answering each with bagAnswer.
func (d *bagDep) runWorker(ctx task.Context) error {
	for {
		t0 := time.Now()
		t, err := ctx.In(itemTemplate)
		t1 := time.Now()
		if errors.Is(err, tuplespace.ErrClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(t) != 4 {
			return fmt.Errorf("bag worker: malformed item %v", t)
		}
		round, ok1 := t[1].(int)
		idx, ok2 := t[2].(int)
		v, ok3 := t[3].(int)
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("bag worker: malformed item %v", t)
		}
		if round < 0 {
			return nil
		}
		rec := d.rec.Load()
		if err := ctx.Out(tuplespace.Tuple{"res", round, idx, bagAnswer(v)}); err != nil {
			return err
		}
		t2 := time.Now()
		rec.sample("tuplespace.worker_in_wait_ms", ms(t1.Sub(t0)))
		rec.sample("taskmgr.exec_ms", ms(t2.Sub(t1)))
		rec.taskSpan(taskSpan{cnJob: ctx.JobID(), task: ctx.TaskName(), name: "tuplespace.worker_in", start: t0.UnixNano(), end: t1.UnixNano()})
		rec.taskSpan(taskSpan{cnJob: ctx.JobID(), task: ctx.TaskName(), name: "tuplespace.worker_out", start: t1.UnixNano(), end: t2.UnixNano()})
	}
}

// warm runs three rounds on one job, from admission to its end.
func (d *bagDep) warm() error {
	if err := d.startJob(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := d.runRound(d.rec.Load()); err != nil && classify(err) == classCorrupt {
			return err
		}
	}
	d.endJob()
	return nil
}

// startJob admits and starts a job of bagWorkers workers.
func (d *bagDep) startJob() error {
	job, err := d.cl.CreateJob("bagoftasks", protocol.JobRequirements{})
	if err != nil {
		return err
	}
	specs := make([]*task.Spec, bagWorkers)
	for i := range specs {
		specs[i] = &task.Spec{Name: fmt.Sprintf("worker%d", i), Class: bagClass,
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}}
	}
	if _, err := job.CreateTasks(specs, nil); err != nil {
		return err
	}
	if err := job.Start(); err != nil {
		return err
	}
	d.job, d.space = job, job.Space()
	return nil
}

// endJob poisons the workers and waits for the job to end, so its trace
// and slot are final.
func (d *bagDep) endJob() {
	for i := 0; i < bagWorkers; i++ {
		if err := d.space.Out(tuplespace.Tuple{"item", -1, 0, 0}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: bag poison pill:", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := d.job.Wait(ctx); err != nil || res.Failed {
		fmt.Fprintf(os.Stderr, "perfbench: bag job did not end cleanly: %v %+v\n", err, res)
	}
}

// drive runs one job per segment, each placed afresh, and rounds on it
// until the segment ends. A job's admission and end are outside every
// round's time.
func (d *bagDep) drive(dur time.Duration, rec *recorder) {
	ops, rounds := 0, 0
	for k := 1; k <= segments; k++ {
		if err := d.startJob(); err != nil {
			rec.job(time.Now(), time.Now(), err, nil)
			continue
		}
		ops0 := d.tsOps()
		end := rec.start.Add(dur * time.Duration(k) / segments)
		for time.Now().Before(end) {
			_ = d.runRound(rec)
			rounds++
		}
		ops += d.tsOps() - ops0
		d.endJob()
	}
	if rounds > 0 {
		d.opsPerRound = float64(ops) / float64(rounds)
	}
}

func (d *bagDep) tsOps() int {
	p, _ := d.c.JobProgress(d.job.Manager(), d.job.ID)
	return p.TSOps
}

func (d *bagDep) extra(m map[string]float64) { m["tuplespace.ops_per_job"] = d.opsPerRound }

// runRound runs and checks one round, recording it as one job.
func (d *bagDep) runRound(rec *recorder) error {
	t0 := time.Now()
	var jt *jobTrace
	if rec.traced {
		jt = newJobTrace(t0)
		jt.cnJob = d.job.ID
	}
	r := d.round
	d.round++
	items := d.items[r%len(d.items)]
	err := d.roundOnce(r, items, rec, jt)
	done := time.Now()
	jt.end(done)
	rec.job(t0, done, err, jt)
	return err
}

func (d *bagDep) roundOnce(r int, items []int, rec *recorder, jt *jobTrace) error {
	for i, v := range items {
		t0 := time.Now()
		err := d.space.Out(tuplespace.Tuple{"item", r, i, v})
		t1 := time.Now()
		rec.sample("tuplespace.client_out_us", float64(t1.Sub(t0))/float64(time.Microsecond))
		jt.add("tuplespace.out", 0, t0, t1)
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), bagRoundTimeout)
	defer cancel()
	tpl := tuplespace.Template{"res", r, tuplespace.TypeOf(0), tuplespace.TypeOf(0)}
	results := make([][2]int, 0, len(items))
	for len(results) < len(items) {
		var t tuplespace.Tuple
		err := timed(rec, jt, "tuplespace.client_in_wait_ms", "tuplespace.in", func() (err error) {
			t, err = d.space.In(ctx, tpl)
			return err
		})
		if err != nil {
			return fmt.Errorf("bag: round %d ended without result for %d of %d items: %w", r, len(items)-len(results), len(items), err)
		}
		if len(t) != 4 {
			return corrupt(fmt.Errorf("bag: round %d: malformed result %v", r, t))
		}
		idx, ok1 := t[2].(int)
		ans, ok2 := t[3].(int)
		if !ok1 || !ok2 {
			return corrupt(fmt.Errorf("bag: round %d: malformed result %v", r, t))
		}
		results = append(results, [2]int{idx, ans})
	}
	return checkBagRound(items, results)
}
