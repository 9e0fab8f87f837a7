package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"cn/internal/floyd"
	"cn/internal/jobstore"
	"cn/internal/portal"
)

// Output checks, one per workload. Each returns nil for a correct result,
// a corrupt(...) error for a wrong result the program reported as a
// success, and a plain error (classified by its text) for a failed job.

// checkFloyd compares a transitive-closure result with the sequential
// Floyd–Warshall answer, cell by cell.
func checkFloyd(got, want *floyd.Matrix) error {
	if got == nil || got.N != want.N || len(got.D) != len(want.D) {
		return corrupt(fmt.Errorf("floyd: result shape differs from the %dx%d input", want.N, want.N))
	}
	for i, v := range want.D {
		if got.D[i] != v {
			return corrupt(fmt.Errorf("floyd: d(%d,%d) = %d, sequential Floyd says %d", i/want.N, i%want.N, got.D[i], v))
		}
	}
	return nil
}

// shuffleHeader is the per-job prefix that makes every shuffle output
// unique, so content addressing never turns a transfer into a cache hit.
const shuffleHeader = 16

// shufflePayload is worker w's output in shuffle job `job`: the job and
// worker numbers followed by the worker's seeded base bytes.
func shufflePayload(base []byte, job int64, w int) []byte {
	out := make([]byte, len(base))
	copy(out[shuffleHeader:], base[shuffleHeader:])
	binary.LittleEndian.PutUint64(out, uint64(job))
	binary.LittleEndian.PutUint64(out[8:], uint64(w))
	return out
}

// checkShufflePayload compares a fetched output byte for byte with what
// worker w published in job `job`.
func checkShufflePayload(got, base []byte, job int64, w int) error {
	if len(got) != len(base) {
		return corrupt(fmt.Errorf("shuffle: output of worker %d is %d bytes, want %d", w, len(got), len(base)))
	}
	if binary.LittleEndian.Uint64(got) != uint64(job) || binary.LittleEndian.Uint64(got[8:]) != uint64(w) {
		return corrupt(fmt.Errorf("shuffle: output of worker %d carries a wrong header", w))
	}
	if !bytes.Equal(got[shuffleHeader:], base[shuffleHeader:]) {
		for i := shuffleHeader; i < len(got); i++ {
			if got[i] != base[i] {
				return corrupt(fmt.Errorf("shuffle: output of worker %d differs at byte %d", w, i))
			}
		}
	}
	return nil
}

// bagAnswer is the function bag workers apply to each item.
func bagAnswer(v int) int { return (v*v + 7) % 1_000_003 }

// checkBagRound checks one round's results: every item index answered
// exactly once, with its right value. results holds (index, answer) pairs
// in arrival order.
func checkBagRound(items []int, results [][2]int) error {
	seen := make([]bool, len(items))
	for _, r := range results {
		i, ans := r[0], r[1]
		if i < 0 || i >= len(items) {
			return corrupt(fmt.Errorf("bag: result for unknown item %d", i))
		}
		if seen[i] {
			return corrupt(fmt.Errorf("bag: item %d answered twice", i))
		}
		seen[i] = true
		if ans != bagAnswer(items[i]) {
			return corrupt(fmt.Errorf("bag: item %d answered %d, want %d", i, ans, bagAnswer(items[i])))
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("bag: round ended without result for item %d", i)
		}
	}
	return nil
}

// checkPortal checks a submission's final record and result: the record
// must read done and its single CN job must not have failed. A record
// that reads done over a failed CN job is a failed job, classified by the
// CN job's error.
func checkPortal(rec *jobstore.Record, result any) error {
	if rec.State != jobstore.StateDone {
		return fmt.Errorf("portal: submission %s ended %s: %s", rec.ID, rec.State, rec.Error)
	}
	rr, ok := result.(*portal.RunResponse)
	if !ok || len(rr.Jobs) != 1 {
		return corrupt(fmt.Errorf("portal: submission %s is done without a one-job result", rec.ID))
	}
	for name, jr := range rr.Jobs {
		if jr.Failed {
			return fmt.Errorf("portal: submission %s reads done but CN job %q failed: %s %v", rec.ID, name, jr.Err, jr.TaskErrs)
		}
		if jr.JobID == "" {
			return corrupt(errors.New("portal: result names no CN job"))
		}
	}
	return nil
}
