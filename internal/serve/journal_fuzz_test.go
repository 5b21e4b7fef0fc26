package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/radio"
)

// journalSeed renders records as a JSONL journal body.
func journalSeed(f *testing.F, recs ...journalRecord) []byte {
	f.Helper()
	var out []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzJournalReplay feeds arbitrary bytes — torn, truncated, bit-flipped
// or hand-damaged journals — through the startup path: load, replay,
// compact and rewrite (openJournal), then load and replay the compacted
// file again. Nothing may panic, and the second replay must recover
// exactly the state the first one did: compaction is lossless for
// everything a restart acts on.
func FuzzJournalReplay(f *testing.F) {
	spec := Spec{Graph: "churn:grid", N: 36, Algo: "flood", Seed: 3, Reps: 2, Epochs: 4, EpochLen: 8}
	sample := exp.Sample{Values: exp.V("complete", 12, "completed", true)}
	ckpt := &exp.FloodCheckpoint{
		Engine:  &radio.Checkpoint{Step: 8, Active: []int32{0, 2}, Nodes: [][]byte{{1}, {2}, {3}}},
		Partial: exp.FloodOutcome{Complete: -1},
	}
	whole := journalSeed(f,
		journalRecord{Op: opSubmit, Job: "job-1", Spec: &spec, Trace: "t1"},
		journalRecord{Op: opTrial, Job: "job-1", Index: 0, Sample: &sample},
		journalRecord{Op: opCkpt, Job: "job-1", Index: 1, Ckpt: ckpt},
		journalRecord{Op: opSubmit, Job: "job-2", Spec: &spec},
		journalRecord{Op: opDone, Job: "job-2"},
		journalRecord{Op: opSubmit, Job: "job-3", Spec: &spec},
		journalRecord{Op: opFailed, Job: "job-3", Error: "boom"},
	)
	f.Add(whole)
	f.Add(whole[:len(whole)-7]) // torn tail
	f.Add(journalSeed(f,
		journalRecord{Op: opSubmit, Job: "job-9", Spec: &spec},
		journalRecord{Op: opTrial, Job: "job-9", Index: 7, Sample: &sample}, // past Reps
		journalRecord{Op: opTrial, Job: "job-9", Index: -1, Sample: &sample},
		journalRecord{Op: opCkpt, Job: "job-9", Index: 0},                   // no snapshot
		journalRecord{Op: opTrial, Job: "job-8", Index: 0, Sample: &sample}, // unknown job
		journalRecord{Op: opSubmit, Job: "job-9", Spec: &spec},              // duplicate
		journalRecord{Op: opFailed, Job: "job-9", Error: "x"},
		journalRecord{Op: opDone, Job: "job-9"},
	))
	f.Add([]byte("{\"op\":\"submit\",\"job\":\"job-1\",\"spec\":{\"reps\":1000000000000}}\n"))
	f.Add([]byte("not json\n\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jr, jobs, maxSeq, err := openJournal(path)
		if err != nil {
			// Only a scanner failure (a line past the 16 MiB token cap) may
			// refuse a journal; the fuzzer's inputs never get there.
			t.Fatalf("openJournal: %v", err)
		}
		jr.close()
		recs, err := loadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		again, maxSeq2 := replayJournal(recs)
		if maxSeq2 != maxSeq {
			t.Fatalf("max job sequence %d after compaction, %d before", maxSeq2, maxSeq)
		}
		if !reflect.DeepEqual(again, jobs) {
			t.Fatalf("compaction changed the recovered state:\nbefore %s\nafter  %s", dumpJobs(jobs), dumpJobs(again))
		}
	})
}

// dumpJobs renders recovered jobs for a failure message.
func dumpJobs(jobs []*recoveredJob) string {
	var out []byte
	for _, j := range jobs {
		b, _ := json.Marshal(map[string]any{
			"id": j.id, "spec": j.spec, "state": j.state, "err": j.errMsg, "trace": j.trace,
			"trials": j.trials, "ckptIdx": j.ckptIdx, "ckpt": j.ckpt,
		})
		out = append(append(out, b...), '\n')
	}
	return string(out)
}
