package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"cn/internal/cluster"
	"cn/internal/core"
	"cn/internal/jobstore"
	"cn/internal/portal"
	"cn/internal/task"
	"cn/internal/transform"
	"cn/internal/xmi"
)

// portalRate is portal_xmi's fixed offered load in submissions per second:
// open loop, Poisson arrivals, well under what four workers sustain.
const portalRate = 120

// portalBodies is how many distinct XMI models a run cycles through.
const portalBodies = 256

// portalWaitTimeout bounds one submission's wait for its final record;
// past the portal's 60s run timeout, so the portal always answers first.
const portalWaitTimeout = 70 * time.Second

// noopClass is the task class portal submissions run, as cmd/cnportal
// registers it.
const noopClass = "cn.Noop"

// portalModel builds submission i's XMI: a head task, six parallel tasks
// and a tail task, all no-ops, with seeded names.
func portalModel(rng *rand.Rand, i int) ([]byte, error) {
	suffix := fmt.Sprintf("%d-%06d", i, rng.Intn(1_000_000))
	tags := func() core.TaggedValues { return core.TaskTags("noop.jar", noopClass, 16, "RUN_AS_THREAD_IN_TM") }
	head, tail := "head-"+suffix, "tail-"+suffix
	b := core.NewBuilder("job-"+suffix).Initial("initial").Action(head, tags()).Fork("fork")
	var mids []string
	for k := 1; k <= 6; k++ {
		name := fmt.Sprintf("mid%d-%s", k, suffix)
		mids = append(mids, name)
		b.Action(name, tags())
	}
	g, err := b.Join("joinbar").Action(tail, tags()).Final("final").
		Flows("initial", head, "fork").FanOut("fork", mids...).FanIn("joinbar", mids...).
		Flows("joinbar", tail, "final").Build()
	if err != nil {
		return nil, err
	}
	m := core.NewClient("BenchClient" + suffix)
	if err := m.AddJob(g); err != nil {
		return nil, err
	}
	doc, err := transform.ToXMI(m)
	if err != nil {
		return nil, err
	}
	s, err := doc.WriteString()
	return []byte(s), err
}

// compileXMI is the path portal.compile takes an XMI body through.
func compileXMI(body []byte) error {
	doc, err := xmi.Parse(bytes.NewReader(body))
	if err != nil {
		return err
	}
	m, err := transform.FromXMI(doc)
	if err != nil {
		return err
	}
	_, err = transform.ModelToCNX(m, transform.Options{Args: core.FixedArgs(4)})
	return err
}

// preparePortal returns portal_xmi's prepare function or, when closed is
// set, its closed-loop twin's: one user submits a model and waits for the
// result before the next, as cnsubmit -wait does.
func preparePortal(closed bool) func(seed int64) (func(bool) (deployment, error), error) {
	return func(seed int64) (func(bool) (deployment, error), error) {
		rng := rand.New(rand.NewSource(seed))
		bodies := make([][]byte, portalBodies)
		for i := range bodies {
			b, err := portalModel(rng, i)
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}
		return func(traced bool) (deployment, error) { return bootPortal(bodies, seed, traced, closed) }, nil
	}
}

// portalDep is cmd/cnportal's deployment in-process: four in-memory
// nodes, four portal workers, in-memory job store, every other setting
// at its default.
type portalDep struct {
	base
	p       *portal.Portal
	handler http.Handler
	bodies  [][]byte
	seed    int64
	closed  bool // one submitter in a closed loop instead of open-loop arrivals
}

func bootPortal(bodies [][]byte, seed int64, traced, closed bool) (deployment, error) {
	reg := task.NewRegistry()
	reg.MustRegister(noopClass, func() task.Task { return task.Func(func(task.Context) error { return nil }) })
	c, err := bootCluster(cluster.TransportMem, reg, traced)
	if err != nil {
		return nil, err
	}
	p, err := portal.New(portal.Config{Cluster: c, Workers: 4, QueueDepth: 64, ResultTTL: 15 * time.Minute, TraceSample: sampleRate(traced)})
	if err != nil {
		c.Stop()
		return nil, err
	}
	d := &portalDep{p: p, handler: p.Handler(), bodies: bodies, seed: seed, closed: closed}
	d.c = c
	return d, nil
}

func (d *portalDep) close() {
	_ = d.p.Close()
	d.c.Stop()
}

// warm submits one model at a time through the whole path.
func (d *portalDep) warm() error {
	for i := 0; i < 32; i++ {
		if err := d.submit(i, time.Now(), d.rec.Load()); err != nil && classify(err) == classCorrupt {
			return err
		}
	}
	return nil
}

// drive offers Poisson arrivals at portalRate for dur; each submission is
// timed from its due time, so a stall also delays the ones behind it.
func (d *portalDep) drive(dur time.Duration, rec *recorder) {
	if d.closed {
		end := time.Now().Add(dur)
		for i := 0; time.Now().Before(end); i++ {
			_ = d.submit(i, time.Now(), rec)
		}
		return
	}
	rng := rand.New(rand.NewSource(d.seed ^ 0x5eed))
	start := time.Now()
	var wg sync.WaitGroup
	var due time.Duration
	for i := 0; ; i++ {
		due += time.Duration(rng.ExpFloat64() / portalRate * float64(time.Second))
		if due >= dur {
			break
		}
		at := start.Add(due)
		time.Sleep(time.Until(at))
		rec.sample("gen_lag_ms", ms(time.Since(at)))
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			_ = d.submit(i, at, rec)
		}(i, at)
	}
	wg.Wait()
}

// submit POSTs submission i to /api/jobs, waits for its final record,
// checks it and records the job.
func (d *portalDep) submit(i int, due time.Time, rec *recorder) error {
	var jt *jobTrace
	if rec.traced {
		jt = newJobTrace(due)
	}
	err := d.submitOnce(i, rec, jt)
	done := time.Now()
	jt.end(done)
	rec.job(due, done, err, jt)
	return err
}

func (d *portalDep) submitOnce(i int, rec *recorder, jt *jobTrace) error {
	req := httptest.NewRequest(http.MethodPost, "/api/jobs", bytes.NewReader(d.bodies[i%len(d.bodies)]))
	w := httptest.NewRecorder()
	_ = timed(rec, jt, "portal.submit_ms", "portal.submit", func() error {
		d.handler.ServeHTTP(w, req)
		return nil
	})
	if w.Code != http.StatusAccepted {
		return fmt.Errorf("portal: submit answered %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	}
	var sub jobstore.Record
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		return fmt.Errorf("portal: submit response: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), portalWaitTimeout)
	defer cancel()
	final, err := d.p.Store().Wait(ctx, sub.ID)
	if err != nil {
		return fmt.Errorf("portal: wait %s: %w", sub.ID, err)
	}
	result, _, _ := d.p.Store().Result(sub.ID)
	if err := checkPortal(final, result); err != nil {
		return err
	}
	rec.sample("jobstore.queue_wait_ms", final.QueueWaitMS)
	rec.sample("jobstore.run_ms", final.RunMS)
	if jt != nil && final.StartedAt != nil && final.FinishedAt != nil {
		jt.add("jobstore.queue", 0, final.SubmittedAt, *final.StartedAt)
		jt.attach = jt.add("jobstore.run", 0, *final.StartedAt, *final.FinishedAt)
		for _, jr := range result.(*portal.RunResponse).Jobs {
			jt.cnJob = jr.JobID
		}
	}
	return nil
}

// extra times the XMI compile path on this run's bodies, after the phase,
// so the measurement does not load the running system.
func (d *portalDep) extra(m map[string]float64) {
	rec := d.rec.Load()
	for _, b := range d.bodies {
		t0 := time.Now()
		if err := compileXMI(b); err == nil {
			rec.sample("transform.compile_ms", ms(time.Since(t0)))
		}
	}
}
