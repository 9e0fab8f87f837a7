package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/floyd"
	"cn/internal/protocol"
	"cn/internal/task"
)

// transclosure_tcp runs the paper's Floyd job: N=128 random graph, W=8
// workers, three archives, on four TCP loopback nodes, one client in a
// closed loop.
const (
	floydN       = 128
	floydWorkers = 8
	floydGraphs  = 32 // distinct seeded inputs a run cycles through
	floydTimeout = 60 * time.Second
)

func prepareFloyd(seed int64) (func(bool) (deployment, error), error) {
	graphs := make([]*floyd.Matrix, floydGraphs)
	want := make([]*floyd.Matrix, floydGraphs)
	for i := range graphs {
		graphs[i] = floyd.RandomGraph(floydN, 0.2, 9, seed*floydGraphs+int64(i))
		want[i] = floyd.Sequential(graphs[i])
	}
	specs, err := floyd.Specs(floydWorkers)
	if err != nil {
		return nil, err
	}
	archives, err := floyd.Archives()
	if err != nil {
		return nil, err
	}
	return func(traced bool) (deployment, error) {
		reg := task.NewRegistry()
		floyd.MustRegister(reg)
		c, err := bootCluster(cluster.TransportTCP, reg, traced)
		if err != nil {
			return nil, err
		}
		cl, err := api.Initialize(c.Network(), api.Options{Tracer: clientTracer(traced)})
		if err != nil {
			c.Stop()
			return nil, err
		}
		d := &floydDep{cl: cl, graphs: graphs, want: want, specs: specs, archives: archives}
		d.c = c
		return d, nil
	}, nil
}

type floydDep struct {
	base
	cl       *api.Client
	graphs   []*floyd.Matrix
	want     []*floyd.Matrix
	specs    []*task.Spec
	archives map[string]*archive.Archive
}

func (d *floydDep) close() {
	_ = d.cl.Close()
	d.c.Stop()
}

func (d *floydDep) warm() error {
	for i := 0; i < 3; i++ {
		if err := d.job(i, d.rec.Load()); err != nil && classify(err) == classCorrupt {
			return err
		}
	}
	return nil
}

func (d *floydDep) drive(dur time.Duration, rec *recorder) {
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end); i++ {
		_ = d.job(i, rec)
	}
}

func (d *floydDep) extra(map[string]float64) {}

// job runs one transitive-closure job the way floyd.Run does — create,
// one CreateTask per spec with its archive, start, feed the matrix, await
// the joiner — timing each public call, and checks the result against
// sequential Floyd.
func (d *floydDep) job(i int, rec *recorder) error {
	t0 := time.Now()
	var jt *jobTrace
	if rec.traced {
		jt = newJobTrace(t0)
	}
	got, err := d.runFloyd(d.graphs[i%len(d.graphs)], rec, jt)
	if err == nil {
		err = checkFloyd(got, d.want[i%len(d.want)])
	}
	done := time.Now()
	jt.end(done)
	rec.job(t0, done, err, jt)
	return err
}

func (d *floydDep) runFloyd(m *floyd.Matrix, rec *recorder, jt *jobTrace) (*floyd.Matrix, error) {
	ctx, cancel := context.WithTimeout(context.Background(), floydTimeout)
	defer cancel()
	var job *api.Job
	if err := timed(rec, jt, "api.create_job_ms", "api.create_job", func() (err error) {
		job, err = d.cl.CreateJob("transclosure", protocol.JobRequirements{})
		return err
	}); err != nil {
		return nil, err
	}
	if jt != nil {
		jt.attach, jt.cnJob = len(jt.spans)-1, job.ID
	}
	if err := timed(rec, jt, "jobmgr.create_tasks_ms", "jobmgr.create_tasks", func() error {
		for _, s := range d.specs {
			if err := job.CreateTask(s, d.archives[s.Archive]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	started := time.Now()
	if err := timed(rec, jt, "", "api.start", func() error { return job.Start() }); err != nil {
		return nil, err
	}
	if err := timed(rec, jt, "api.send_message_ms", "api.send_message", func() error {
		return job.SendMessage(floyd.SplitTaskName, floyd.EncodeMatrixMessage(m))
	}); err != nil {
		return nil, err
	}
	var result *floyd.Matrix
	if err := timed(rec, jt, "api.result_wait_ms", "api.result_wait", func() (err error) {
		data, err := awaitResult(ctx, job, floyd.JoinTaskName)
		if err != nil {
			return err
		}
		if result, err = floyd.DecodeResultMessage(data); err != nil {
			return corrupt(err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var res *api.Result
	if err := timed(rec, jt, "", "api.wait", func() (err error) {
		res, err = job.Wait(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	rec.sample("jobmgr.start_to_done_ms", ms(time.Since(started)))
	if res.Failed {
		return nil, fmt.Errorf("floyd: job failed after its result: %s %v", res.Err, res.TaskErrs)
	}
	return result, nil
}

// awaitResult reads the job's messages until one from task `from` arrives;
// a job that ends first ended without its result.
func awaitResult(ctx context.Context, job *api.Job, from string) ([]byte, error) {
	msgCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-job.Done():
			cancel()
		case <-msgCtx.Done():
		}
	}()
	for {
		sender, data, err := job.GetMessage(msgCtx)
		if err != nil {
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, fmt.Errorf("result wait: %w", ctx.Err())
			}
			res, werr := job.Wait(ctx)
			if werr != nil {
				return nil, werr
			}
			return nil, fmt.Errorf("job terminated without result: %s %v", res.Err, res.TaskErrs)
		}
		if sender == from {
			return data, nil
		}
	}
}
