package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cn/internal/floyd"
	"cn/internal/jobstore"
	"cn/internal/portal"
)

func TestCheckFloydRejectsChangedCell(t *testing.T) {
	want := floyd.Sequential(floyd.RandomGraph(16, 0.3, 9, 7))
	if err := checkFloyd(want.Clone(), want); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	got := want.Clone()
	got.Set(3, 11, got.At(3, 11)+1)
	err := checkFloyd(got, want)
	if err == nil || classify(err) != classCorrupt {
		t.Fatalf("changed cell: err = %v, want a corrupt result", err)
	}
}

func TestCheckShuffleRejectsFlippedByte(t *testing.T) {
	base := make([]byte, 4096)
	for i := range base {
		base[i] = byte(i * 7)
	}
	got := shufflePayload(base, 42, 3)
	if err := checkShufflePayload(got, base, 42, 3); err != nil {
		t.Fatalf("correct payload rejected: %v", err)
	}
	for _, at := range []int{0, 9, shuffleHeader, len(got) - 1} {
		bad := append([]byte(nil), got...)
		bad[at] ^= 0x01
		if err := checkShufflePayload(bad, base, 42, 3); err == nil || classify(err) != classCorrupt {
			t.Errorf("byte %d flipped: err = %v, want a corrupt result", at, err)
		}
	}
	if err := checkShufflePayload(got[:len(got)-1], base, 42, 3); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestCheckBagRejectsDroppedOrWrongResult(t *testing.T) {
	items := []int{5, 9, 1000, 77}
	var results [][2]int
	for i, v := range items {
		results = append(results, [2]int{i, bagAnswer(v)})
	}
	if err := checkBagRound(items, results); err != nil {
		t.Fatalf("correct round rejected: %v", err)
	}
	if err := checkBagRound(items, results[1:]); err == nil || classify(err) != classMissingResult {
		t.Errorf("dropped result: err = %v, want a missing result", err)
	}
	dup := append(append([][2]int(nil), results[:3]...), results[0])
	if err := checkBagRound(items, dup); err == nil || classify(err) != classCorrupt {
		t.Errorf("duplicate result: err = %v, want a corrupt result", err)
	}
	wrong := append([][2]int(nil), results...)
	wrong[2][1]++
	if err := checkBagRound(items, wrong); err == nil || classify(err) != classCorrupt {
		t.Errorf("wrong value: err = %v, want a corrupt result", err)
	}
}

func TestCheckPortalRejectsFailedJobBehindDoneRecord(t *testing.T) {
	rec := &jobstore.Record{ID: "job-1", State: jobstore.StateDone}
	ok := &portal.RunResponse{Jobs: map[string]portal.JobResult{"j": {JobID: "node1-job1"}}}
	if err := checkPortal(rec, ok); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	failed := &portal.RunResponse{Jobs: map[string]portal.JobResult{"j": {
		JobID: "node1-job1", Failed: true,
		Err: "api: create 8 tasks: jobmgr node1: no TaskManager offered to host tasks",
	}}}
	err := checkPortal(rec, failed)
	if err == nil || classify(err) != classPlacementStall {
		t.Fatalf("done record over a failed job: err = %v, want a placement stall", err)
	}
	if err := checkPortal(&jobstore.Record{ID: "job-2", State: jobstore.StateFailed, Error: "boom"}, nil); err == nil {
		t.Error("failed record accepted")
	}
}

func TestClassify(t *testing.T) {
	for text, want := range map[string]string{
		"api: create job \"x\": discovery: discovery: no JobManager offers received": classDiscoveryTimeout,
		"job terminated without result:  map[]":                                      classMissingResult,
		"jobmgr node2: no TaskManager offered to host tasks":                         classPlacementStall,
		"portal: submit answered 429":                                                classOther,
	} {
		if got := classify(errors.New(text)); got != want {
			t.Errorf("classify(%q) = %s, want %s", text, got, want)
		}
	}
}

// TestSweepPartitionsWallTime checks that per-layer self times add up to
// the job's wall time and that the deepest span wins.
func TestSweepPartitionsWallTime(t *testing.T) {
	ivs := []interval{
		{layer: "client", depth: 0, start: 0, end: 100},
		{layer: "api", depth: 1, start: 10, end: 90},
		{layer: "jobmgr", depth: 2, start: 20, end: 40, program: true},
		{layer: "taskmgr", depth: 3, start: 30, end: 60, program: true},
	}
	perLayer, uncovered := sweep(0, 100, ivs)
	want := map[string]int64{"client": 20, "api": 40, "jobmgr": 10, "taskmgr": 30}
	var total int64
	for l, v := range want {
		if perLayer[l] != v {
			t.Errorf("%s self = %d, want %d", l, perLayer[l], v)
		}
		total += perLayer[l]
	}
	if total != 100 {
		t.Errorf("self times add to %d, want the wall time 100", total)
	}
	if uncovered != 60 {
		t.Errorf("uncovered = %d, want 60", uncovered)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokePrintsEveryMetric runs every workload briefly in both modes
// and checks that each metric BENCHMARK.json names is printed, with its
// unit, in the table and in the JSON result.
func TestSmokePrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				var out bytes.Buffer
				start := time.Now()
				if err := run(&out, config{workload: name, seed: 3, seconds: 1, trace: traced}); err != nil {
					t.Fatalf("run: %v", err)
				}
				t.Logf("%.1fs", time.Since(start).Seconds())
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d", res.Correct, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("metric %-40s", m.Name)) {
						t.Errorf("metric %s missing from the table", m.Name)
					}
				}
				if !strings.HasPrefix(lines[1], "env {") {
					t.Errorf("second line is not the environment block: %q", lines[1])
				}
			})
		}
	}
}
