package serve

// The job journal (DESIGN.md §8): an append-only JSONL file recording every
// async job's lifecycle — submission, completed trials, flood engine
// checkpoints, and the terminal state. On startup the service replays the
// journal, re-registers terminal jobs (so job IDs survive restart), and
// re-enqueues interrupted ones with their completed trials prefilled and
// the last engine checkpoint attached; the determinism contract then makes
// the recovered result byte-identical to what the uninterrupted run would
// have produced. After replay the journal is compacted in place (write-tmp,
// fsync, rename): terminal jobs keep only their submit + terminal records,
// interrupted jobs keep their recovery state, and everything else is
// dropped.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/obs"
)

// Journal record operations.
const (
	opSubmit = "submit"
	opTrial  = "trial"
	opCkpt   = "ckpt"
	opDone   = "done"
	opFailed = "failed"
)

// journalRecord is one JSONL line. Exactly the fields its op needs are set.
type journalRecord struct {
	Op     string               `json:"op"`
	Job    string               `json:"job"`
	Spec   *Spec                `json:"spec,omitempty"`
	Index  int                  `json:"index,omitempty"`
	Sample *exp.Sample          `json:"sample,omitempty"`
	Ckpt   *exp.FloodCheckpoint `json:"ckpt,omitempty"`
	Error  string               `json:"error,omitempty"`
	// Trace is the submitting request's trace ID, carried on the submit
	// record (and preserved across replay/compaction) so a job can be
	// followed from HTTP entry through the journal to structured logs —
	// across restarts included (DESIGN.md §10).
	Trace string `json:"trace,omitempty"`
}

// errJournalFrozen is what appends return after Kill froze the journal — it
// aborts in-flight checkpointed runs the way a dead disk would.
var errJournalFrozen = errors.New("journal frozen (simulated crash)")

// opDurable reports whether an op's record must be fsynced. Lifecycle
// records (submit, done, failed) define what a restart owes the client —
// losing one forgets a job or re-runs a finished one — so they hit the
// platter before append returns. Progress records (trial, ckpt) are
// recovery accelerators: losing the tail of them costs recomputation of
// work that is byte-identical by the determinism contract, never
// correctness. Fsyncing every ckpt line was the resume-overhead regression
// — a resumed 32-trial job journals hundreds of progress records and paid
// a disk flush for each, making it 3.5× slower than a fresh run.
func opDurable(op string) bool {
	switch op {
	case opSubmit, opDone, opFailed:
		return true
	}
	return false
}

// journal is the open append handle. Appends are serialized; lifecycle
// records are additionally fsynced (see opDurable), so a submit/done/failed
// that append returned nil for survives a crash. Progress records ride the
// OS page cache — a kernel that stays up (kill -9 included) still flushes
// them, and a machine crash merely costs recomputed trials.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	faults *chaos.Faults
	frozen bool
	// met instruments append and fsync latency; zero-valued fields are
	// inert (nil-safe), matching store.Metrics.
	met journalMetrics
}

// journalMetrics is the journal's instrumentation hook set.
type journalMetrics struct {
	// AppendSeconds observes every append — marshal, fault check, write,
	// and any fsync.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes the fsync a durable (lifecycle) record pays.
	FsyncSeconds *obs.Histogram
}

// append writes one record durably. The "serve.journal" chaos site injects
// write failures here.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	if j.met.AppendSeconds != nil {
		defer j.met.AppendSeconds.ObserveSince(time.Now())
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen {
		return errJournalFrozen
	}
	if err := j.faults.Check("serve.journal"); err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	if opDurable(rec.Op) {
		t0 := time.Now()
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("serve: journal: %w", err)
		}
		if j.met.FsyncSeconds != nil {
			j.met.FsyncSeconds.ObserveSince(t0)
		}
	}
	return nil
}

// freeze makes every future append fail with errJournalFrozen — the
// in-process stand-in for kill -9: whatever is on disk now is what a
// restarted service will see.
func (j *journal) freeze() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.frozen = true
	j.mu.Unlock()
}

// close closes the file handle (idempotent; safe after freeze).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
		j.frozen = true
	}
}

// loadJournal reads all parseable records from path; a missing file is an
// empty journal. Unparseable lines are skipped rather than fatal: a crash
// mid-append can tear the final line, and recovery must not be blocked by
// the very failure mode it exists for (the torn record's trial simply
// re-runs).
func loadJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	// Checkpoint lines carry base64 per-node states; size the token buffer
	// for the largest admissible spec rather than Scanner's 64 KiB default.
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail (or hand-damaged line): recompute instead
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return recs, nil
}

// recoveredJob is one job reconstructed from the journal.
type recoveredJob struct {
	id     string
	spec   Spec
	state  JobState // JobQueued = interrupted, to re-enqueue
	errMsg string
	trace  string // submitting request's trace ID, preserved across restarts
	// trials holds the completed trials' samples by declaration index —
	// prefilled into the recovered run so only missing trials execute.
	trials map[int]exp.Sample
	// ckpt, when non-nil, is the last engine checkpoint of the trial at
	// ckptIdx, interrupted mid-flight.
	ckptIdx int
	ckpt    *exp.FloodCheckpoint
}

// replayJournal folds the record stream into per-job recovery state, in
// submission order, and returns the highest job sequence number seen.
func replayJournal(recs []journalRecord) ([]*recoveredJob, int) {
	byID := make(map[string]*recoveredJob)
	var order []*recoveredJob
	maxSeq := 0
	for _, rec := range recs {
		if rec.Op == opSubmit {
			if rec.Spec == nil || byID[rec.Job] != nil {
				continue
			}
			j := &recoveredJob{id: rec.Job, spec: *rec.Spec, state: JobQueued, trace: rec.Trace, trials: make(map[int]exp.Sample)}
			byID[rec.Job] = j
			order = append(order, j)
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "job-")); err == nil && n > maxSeq {
				maxSeq = n
			}
			continue
		}
		j := byID[rec.Job]
		if j == nil {
			continue
		}
		// A trial or checkpoint record naming no trial of the spec (a
		// damaged line that still parsed) is dropped: it could only inflate
		// the recovered progress count.
		inRange := rec.Index >= 0 && rec.Index < j.spec.Reps
		switch rec.Op {
		case opTrial:
			if rec.Sample != nil && inRange {
				j.trials[rec.Index] = *rec.Sample
			}
		case opCkpt:
			// Later checkpoints supersede earlier ones; a checkpoint for a
			// trial that has since completed is dropped with it below.
			if rec.Ckpt != nil && inRange {
				j.ckptIdx, j.ckpt = rec.Index, rec.Ckpt
			}
		case opDone:
			j.state, j.errMsg = JobDone, ""
		case opFailed:
			j.state, j.errMsg = JobFailed, rec.Error
		}
	}
	// Terminal jobs need no recovery state; interrupted ones drop a
	// checkpoint their trial outran. What is left is exactly what
	// compactRecords writes back.
	for _, j := range order {
		if j.state != JobQueued {
			clear(j.trials)
		}
		if _, completed := j.trials[j.ckptIdx]; completed || j.state != JobQueued {
			j.ckptIdx, j.ckpt = 0, nil
		}
	}
	return order, maxSeq
}

// compactRecords is the minimal record stream reproducing the recovery
// state: submit + terminal for finished jobs, submit + trials + last
// checkpoint for interrupted ones.
func compactRecords(jobs []*recoveredJob) []journalRecord {
	var recs []journalRecord
	for _, j := range jobs {
		spec := j.spec
		recs = append(recs, journalRecord{Op: opSubmit, Job: j.id, Spec: &spec, Trace: j.trace})
		switch j.state {
		case JobDone:
			recs = append(recs, journalRecord{Op: opDone, Job: j.id})
		case JobFailed:
			recs = append(recs, journalRecord{Op: opFailed, Job: j.id, Error: j.errMsg})
		default:
			// Ascending trial order over the recorded trials only: the
			// spec's Reps comes from disk and may be damaged, so it must
			// not bound a loop.
			idx := make([]int, 0, len(j.trials))
			for i := range j.trials {
				idx = append(idx, i)
			}
			slices.Sort(idx)
			for _, i := range idx {
				sample := j.trials[i]
				recs = append(recs, journalRecord{Op: opTrial, Job: j.id, Index: i, Sample: &sample})
			}
			if j.ckpt != nil {
				recs = append(recs, journalRecord{Op: opCkpt, Job: j.id, Index: j.ckptIdx, Ckpt: j.ckpt})
			}
		}
	}
	return recs
}

// openJournal loads, replays, and compacts the journal at path, returning
// the append handle positioned after the compacted records plus the
// recovered jobs. Compaction is atomic (write-tmp, fsync, rename, dir
// fsync), so a crash during startup leaves either the old or the new
// journal, both of which replay to the same state.
func openJournal(path string) (*journal, []*recoveredJob, int, error) {
	recs, err := loadJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs, maxSeq := replayJournal(recs)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range compactRecords(jobs) {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}

	h, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	return &journal{f: h, path: path}, jobs, maxSeq, nil
}
