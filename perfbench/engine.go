package main

// Engine workloads: a closed loop with one client and Parallel 1. The
// benchmark process launches a worker process (the same binary), times
// launch-to-ready, and sends it one spec at a time; the worker runs the spec
// through serve.Execute and Result.JSON and replies with the encoded result,
// which the benchmark checks.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

// workerArg, as the first argument, turns the binary into an engine worker.
const workerArg = "-engine-worker"

// setupLaunches is how many times a run launches its worker (or server) to
// time set-up; the median launch is reported and the last launch does the
// work.
const setupLaunches = 40

// tracedOps is the fixed number of ops of a traced engine run, so its
// counts repeat exactly for a given seed.
const tracedOps = 1

// workerRequest asks the worker to run one spec. With Trace set the worker
// first rebuilds the job traced, then runs it untraced through
// serve.Execute for the equivalence check and the overhead ratio.
type workerRequest struct {
	Spec  serve.Spec `json:"spec"`
	Trace bool       `json:"trace,omitempty"`
}

type workerReply struct {
	Err string `json:"err,omitempty"`
	// JobS is the wall time of serve.Execute through Result.JSON net of
	// hypervisor steal: wall × (1 − the busy time's steal share). JobWallS
	// and JobCPUS (process CPU time) are diagnostics of the same span.
	JobS, JobWallS, JobCPUS float64
	// MemPeakMB is the process's peak RSS during the op.
	MemPeakMB float64
	Body      []byte `json:"body,omitempty"`
	// Traced runs only: the rebuilt job's sample values and the layers
	// accumulated over all of the worker's traced ops so far.
	Values map[string]float64 `json:"values,omitempty"`
	Layers *layers            `json:"layers,omitempty"`
}

// workerMain serves requests on stdin until EOF.
func workerMain(in io.Reader, out io.Writer) error {
	enc := json.NewEncoder(out)
	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return err
	}
	dec := json.NewDecoder(bufio.NewReader(in))
	l := &layers{} // cumulative over the worker's traced ops
	for {
		var req workerRequest
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := enc.Encode(workerRun(req, l)); err != nil {
			return err
		}
	}
}

func workerRun(req workerRequest, l *layers) workerReply {
	var rep workerReply
	if req.Trace {
		values, _, err := tracedJob(req.Spec, l)
		if err != nil {
			return workerReply{Err: "traced: " + err.Error()}
		}
		rep.Values, rep.Layers = values, l
	}
	// Reset the peak RSS so the op's own peak is measured (Linux
	// clear_refs "5"); where that is refused the peak is the process's.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	t0, cpu0, ticks0 := time.Now(), cpuTime(), readCPUTicks()
	res, err := serve.Execute(req.Spec, 1, nil)
	if err != nil {
		return workerReply{Err: err.Error()}
	}
	body, err := res.JSON()
	if err != nil {
		return workerReply{Err: err.Error()}
	}
	rep.JobWallS = time.Since(t0).Seconds()
	rep.JobS = rep.JobWallS * (1 - stealShare(ticks0, readCPUTicks()))
	rep.JobCPUS = (cpuTime() - cpu0).Seconds()
	if rep.MemPeakMB, err = vmHWMMB("self"); err != nil {
		return workerReply{Err: err.Error()}
	}
	rep.Body = body
	return rep
}

// worker is a running worker process.
type worker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

// startWorker launches the worker and waits for its ready line.
func startWorker() (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, workerArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	w := &worker{cmd: cmd, in: in, enc: json.NewEncoder(in)}
	br := bufio.NewReader(outPipe)
	line, err := br.ReadString('\n')
	if err != nil || line != "ready\n" {
		w.kill()
		return nil, fmt.Errorf("worker did not become ready (%q): %v", line, err)
	}
	w.dec = json.NewDecoder(br)
	return w, nil
}

func (w *worker) call(req workerRequest) (workerReply, error) {
	var rep workerReply
	if err := w.enc.Encode(req); err != nil {
		return rep, fmt.Errorf("send to worker: %w", err)
	}
	if err := w.dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("read from worker: %w", err)
	}
	return rep, nil
}

// stop closes the worker's input and waits for it to exit.
func (w *worker) stop() error {
	w.in.Close()
	if err := w.cmd.Wait(); err != nil {
		return fmt.Errorf("worker exit: %w", err)
	}
	return nil
}

// cpuTime is the process's CPU time so far (user and system, all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// kill ends the worker on an error path and waits for it.
func (w *worker) kill() {
	w.in.Close()
	_ = w.cmd.Process.Kill() // the process may already have exited
	_ = w.cmd.Wait()         // its exit status is the error being handled
}

// opSeed derives op i's spec seed from the workload seed (splitmix64), so
// every op of every run submits a fresh, reproducible spec.
func opSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func runEngineWorkload(o options, w workload, rep *report) error {
	var setups []float64
	var wk *worker
	syncFS(o.workDir)
	for i := 0; i < setupLaunches; i++ {
		t0 := time.Now()
		next, err := startWorker()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if wk != nil {
			if err := wk.stop(); err != nil {
				next.kill()
				return err
			}
		}
		wk = next
	}
	spec := w.engine.spec
	if o.tiny {
		spec.N = tinyEngineN
	}

	var jobs, walls, cpus, mems []float64
	ok, inSLO := 0, 0
	l := &layers{}
	var untraced float64
	start := time.Now()
	for i := 0; ; i++ {
		// Untraced runs start another op only while it can end within the
		// measured time, going by the median op so far.
		est := time.Duration(quantile(jobs, 0.5) * float64(time.Second))
		if o.trace && i >= tracedOps || !o.trace && i > 0 && time.Since(start)+est > o.duration() {
			break
		}
		sp := spec
		sp.Seed = opSeed(o.seed, i)
		rep.Attempted++
		r, err := wk.call(workerRequest{Spec: sp, Trace: o.trace})
		if err != nil {
			wk.kill()
			return err
		}
		if r.Err != "" {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("op %d (seed %d): %s", i, sp.Seed, r.Err))
			continue
		}
		if o.corrupt && i == 0 {
			r.Body = corruptBody(r.Body)
		}
		// An invalid phy:sinr MIS is a known defect of the program
		// (NOTES.md): the op is timed but does not count as OK.
		valid := true
		if err := checkBody(sp, r.Body); errors.Is(err, errSINRInvalidMIS) {
			rep.SINRInvalidMIS++
			rep.Errors = append(rep.Errors, fmt.Sprintf("op %d (seed %d): %v", i, sp.Seed, err))
			valid = false
		} else if err != nil {
			rep.fail("op %d (seed %d): %v", i, sp.Seed, err)
			break
		}
		if o.trace {
			if err := checkEquivalent(r.Values, r.Body); err != nil {
				rep.fail("op %d (seed %d): traced rebuild differs from serve.Execute: %v", i, sp.Seed, err)
				break
			}
			l = r.Layers
			untraced += r.JobWallS // per-layer times are raw wall times too
		}
		jobs = append(jobs, r.JobS)
		walls = append(walls, r.JobWallS)
		cpus = append(cpus, r.JobCPUS)
		mems = append(mems, r.MemPeakMB)
		if valid {
			ok++
			if r.JobS <= w.slo.Seconds() {
				inSLO++
			}
		}
	}
	if err := wk.stop(); err != nil {
		return err
	}
	rep.Extra["ops"] = float64(len(jobs))
	rep.Extra["job_wall_s.p50"] = quantile(walls, 0.5)
	rep.Extra["job_cpu_s.p50"] = quantile(cpus, 0.5)
	if o.trace {
		l.layerMetrics(rep)
		rep.set("trace.untraced_job_s", untraced)
		rep.set("trace.overhead_ratio", ratio(l.Job, untraced))
		setServeLayersBypassed(rep)
		rep.Notes = append(rep.Notes, "engine workload: the HTTP, cache, store and journal layers are bypassed and report 0")
		return nil
	}
	setSetup(rep, setups)
	rep.set("job_s.p50", quantile(jobs, 0.5))
	rep.set("req_ms.p50", 1000*quantile(jobs, 0.5))
	rep.set("req_ms.p99", 1000*quantile(jobs, 0.99))
	rep.set("slo_share", ratio(float64(inSLO), float64(rep.Attempted)))
	rep.set("ok_share", ratio(float64(ok), float64(rep.Attempted)))
	rep.set("mem_peak_mb", quantile(mems, 1))
	rep.Notes = append(rep.Notes, "closed loop, one client: each op is one request, so req_ms is job_s in milliseconds ("+strconv.Itoa(len(jobs))+" samples)")
	return nil
}
