package main

import "math"

// metricSpec names one reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricSpec struct{ name, unit string }

// endToEnd are the --trace 0 metrics, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"ok_frac", "frac"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_kb_per_job", "KiB"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the --trace 1 metrics, reported on every workload; a layer
// the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"gen_lag_ms", "ms"},
	{"portal.submit_ms", "ms"},
	{"jobstore.queue_wait_ms", "ms"},
	{"jobstore.run_ms", "ms"},
	{"transform.compile_ms", "ms"},
	{"placement.solicit_rounds_per_job", "count"},
	{"placement.cache_hit_frac", "frac"},
	{"placement.stall_failures", "count"},
	{"api.discovery_timeouts", "count"},
	{"jobmgr.missing_result_failures", "count"},
	{"failures.other", "count"},
	{"jobmgr.leaked_slots", "count"},
	{"api.create_job_ms", "ms"},
	{"jobmgr.create_tasks_ms", "ms"},
	{"jobmgr.start_to_done_ms", "ms"},
	{"archive.blob_transfers_per_job", "count"},
	{"api.send_message_ms", "ms"},
	{"api.result_wait_ms", "ms"},
	{"transport.frames_per_job", "count"},
	{"transport.kb_per_job", "KiB"},
	{"transport.frames_per_flush", "count"},
	{"transport.drops", "count"},
	{"transport.frame_errors", "count"},
	{"dataplane.put_p50_ms", "ms"},
	{"dataplane.put_p95_ms", "ms"},
	{"dataplane.get_p50_ms", "ms"},
	{"dataplane.get_p95_ms", "ms"},
	{"dataplane.fetched_mb_per_job", "MiB"},
	{"dataplane.inline_kb_per_job", "KiB"},
	{"dataplane.resolve_parks_per_job", "count"},
	{"taskmgr.exec_ms", "ms"},
	{"tuplespace.client_out_us", "us"},
	{"tuplespace.client_in_wait_ms", "ms"},
	{"tuplespace.worker_in_wait_ms", "ms"},
	{"tuplespace.ops_per_job", "count"},
	{"go.gc_cycles_per_job", "count"},
	{"go.gc_pause_ms_per_job", "ms"},
	{"trace.client.self_ms", "ms"},
	{"trace.portal.self_ms", "ms"},
	{"trace.jobstore.self_ms", "ms"},
	{"trace.api.self_ms", "ms"},
	{"trace.placement.self_ms", "ms"},
	{"trace.jobmgr.self_ms", "ms"},
	{"trace.taskmgr.self_ms", "ms"},
	{"trace.dataplane.self_ms", "ms"},
	{"trace.tuplespace.self_ms", "ms"},
	{"trace.uncovered_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// sampled maps per-layer metrics taken as p50 of timing samples to the
// recorder sample they come from.
var sampled = []string{
	"portal.submit_ms", "jobstore.queue_wait_ms", "jobstore.run_ms", "transform.compile_ms",
	"api.create_job_ms", "jobmgr.create_tasks_ms", "jobmgr.start_to_done_ms",
	"api.send_message_ms", "api.result_wait_ms", "taskmgr.exec_ms",
	"tuplespace.client_out_us", "tuplespace.client_in_wait_ms", "tuplespace.worker_in_wait_ms",
}

// endToEndFigures computes the --trace 0 metrics and their sample counts.
// Latency, throughput and per-job cost are medians over the phase's
// segments, each segment holding the jobs that started in it.
func endToEndFigures(ph *phase) (map[string]float64, map[string]int) {
	r := ph.rec
	n := r.attempted()
	setups := make([]float64, len(ph.setups))
	for i, s := range ph.setups {
		setups[i] = s.Seconds()
	}
	bins := make([][]float64, len(ph.marks)-1)
	for i, at := range r.startAt {
		if k := int(at / ph.seg); k < len(bins) {
			bins[k] = append(bins[k], r.latMS[i])
		}
	}
	var p50s, p95s, rates, cpus, allocs []float64
	for k, lat := range bins {
		if len(lat) == 0 {
			continue
		}
		ok := 0
		for _, l := range lat {
			if !math.IsInf(l, 1) {
				ok++
			}
		}
		jobs := float64(len(lat))
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, 0.95))
		rates = append(rates, float64(ok)/ph.seg.Seconds())
		cpus = append(cpus, ms(ph.marks[k+1].cpu-ph.marks[k].cpu)/jobs)
		allocs = append(allocs, float64(ph.marks[k+1].alloc-ph.marks[k].alloc)/1024/jobs)
	}
	v := map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"job_p50_ms":       finiteMS(quantile(p50s, 0.5)),
		"job_p95_ms":       finiteMS(quantile(p95s, 0.5)),
		"jobs_per_s":       quantile(rates, 0.5),
		"ok_frac":          float64(r.ok) / float64(n),
		"cpu_ms_per_job":   quantile(cpus, 0.5),
		"alloc_kb_per_job": quantile(allocs, 0.5),
		"rss_peak_mb":      peakRSSMiB(),
	}
	c := map[string]int{
		"setup_s": len(setups), "job_p50_ms": n, "job_p95_ms": n, "jobs_per_s": r.ok, "ok_frac": n,
		"cpu_ms_per_job": n, "alloc_kb_per_job": n, "rss_peak_mb": 1,
	}
	return v, c
}

// perLayerFigures computes the --trace 1 metrics from the untraced phase
// (outside timings and counters) and the traced phase (span breakdown).
func perLayerFigures(plain, traced *phase) (map[string]float64, map[string]int) {
	r := plain.rec
	n := r.attempted()
	jobs := float64(n)
	b, a := plain.before, plain.after
	v := make(map[string]float64)
	c := make(map[string]int)
	perJob := func(name string, total float64) {
		v[name] = total / jobs
		c[name] = n
	}
	for _, name := range sampled {
		v[name], c[name] = p50(r.samples[name])
	}
	for name, x := range plain.extra {
		v[name], c[name] = x, n
	}
	lag := r.samples["gen_lag_ms"]
	if len(lag) > 0 {
		v["gen_lag_ms"], c["gen_lag_ms"] = quantile(lag, 0.95), len(lag)
	}
	for _, op := range []string{"put", "get"} {
		s := r.samples["dataplane."+op+"_ms"]
		v["dataplane."+op+"_p50_ms"], c["dataplane."+op+"_p50_ms"] = p50(s)
		if len(s) > 0 {
			v["dataplane."+op+"_p95_ms"], c["dataplane."+op+"_p95_ms"] = quantile(s, 0.95), len(s)
		}
	}

	rounds, hits := float64(a.place.SolicitRounds-b.place.SolicitRounds), float64(a.place.CacheHits-b.place.CacheHits)
	perJob("placement.solicit_rounds_per_job", rounds)
	if rounds+hits > 0 {
		v["placement.cache_hit_frac"], c["placement.cache_hit_frac"] = hits/(hits+rounds), int(hits+rounds)
	}
	for name, class := range map[string]string{
		"placement.stall_failures":       classPlacementStall,
		"api.discovery_timeouts":         classDiscoveryTimeout,
		"jobmgr.missing_result_failures": classMissingResult,
		"failures.other":                 classOther,
	} {
		v[name], c[name] = float64(r.failures[class]), n
	}
	perJob("archive.blob_transfers_per_job", float64(a.blobs-b.blobs))

	sent, flushes := float64(a.wire.Sent-b.wire.Sent), float64(a.wire.Flushes-b.wire.Flushes)
	perJob("transport.frames_per_job", sent)
	perJob("transport.kb_per_job", float64(a.wire.BytesSent-b.wire.BytesSent)/1024)
	if flushes > 0 {
		v["transport.frames_per_flush"], c["transport.frames_per_flush"] = sent/flushes, int(flushes)
	}
	v["transport.drops"] = float64(a.wire.ControlDrops - b.wire.ControlDrops + a.wire.BulkDrops - b.wire.BulkDrops)
	v["transport.frame_errors"] = float64(a.wire.FrameErrors - b.wire.FrameErrors)
	c["transport.drops"], c["transport.frame_errors"] = n, n

	perJob("dataplane.fetched_mb_per_job", float64(a.fetched-b.fetched)/(1<<20))
	perJob("dataplane.inline_kb_per_job", float64(a.dp.InlineBytes-b.dp.InlineBytes)/1024)
	perJob("dataplane.resolve_parks_per_job", float64(a.dp.Parks-b.dp.Parks))

	perJob("go.gc_cycles_per_job", float64(a.gcCycles-b.gcCycles))
	perJob("go.gc_pause_ms_per_job", float64(a.gcPauseNS-b.gcPauseNS)/1e6)

	for layer, s := range traced.self {
		name := "trace." + layer + ".self_ms"
		v[name], c[name] = p50(s)
	}
	tn := traced.rec.ok
	v["trace.uncovered_frac"], c["trace.uncovered_frac"] = traced.uncovered, tn
	plainP50, tracedP50 := quantile(r.latMS, 0.5), quantile(traced.rec.latMS, 0.5)
	if !math.IsInf(plainP50, 0) && !math.IsInf(tracedP50, 0) && plainP50 > 0 {
		v["trace.overhead_frac"], c["trace.overhead_frac"] = tracedP50/plainP50-1, tn
	}
	for name, x := range v {
		if math.IsNaN(x) {
			v[name] = 0
		}
	}
	return v, c
}

// p50 is the median of samples and their count; 0 when the layer took no
// samples on this workload.
func p50(s []float64) (float64, int) {
	if len(s) == 0 {
		return 0, 0
	}
	return quantile(s, 0.5), len(s)
}
