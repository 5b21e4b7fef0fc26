package main

// serve-mix: an open loop of seeded Poisson arrivals against a separate
// radionet-serve process with a fresh data directory, sent over a few
// keep-alive connections. The mix puts memory hits, durable hits, misses,
// prefix resumes, async jobs and the known generator defect side by side.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Request classes of the mix.
const (
	classSmall  = "small"  // loadgen mix specs over many seeds: hits and misses
	classMedium = "medium" // fresh-seed mid-size specs: always misses
	classFlood  = "flood"  // one dynamic flood family differing in epochs: prefix resumes
	classDefect = "defect" // mis@udg/4096: the recorded generator defect
)

// Requests per second of schedule for the engine-bound classes; small takes
// the rest of serveRateHz, and one defect request ends every run. Each
// engine-bound request holds a server worker for 0.1-0.5 s, so they are
// kept to about 0.3% of the requests: the 1% tail that req_ms.p99 reads
// is then made of service-path requests (and those queued behind an
// engine), not of engine run times. The counts are those per 40 s run.
const (
	mediumSyncHz = 0.075 // 3: each medium spec once, always misses
	floodHz      = 0.5   // 20 over the 12 distinct specs: a miss per family, then HIT-PREFIX resumes and hits
	asyncHz      = 0.3   // 12 medium, through queue and journal; job_s.p50 is their median
	// smallSeeds is the number of seeds per loadgen mix entry: 4×150 = 600
	// distinct specs against the 256-entry LRU. Drawn by a Zipf(1.05), the
	// popular ones stay in memory and the tail is evicted between its
	// requests, so a run has hundreds of durable hits beside its misses.
	smallSeeds    = 150
	floodFamilies = 2
	pollInterval  = 10 * time.Millisecond
)

// defectMarker identifies the known generator defect's error (NOTES.md):
// below 4097 nodes the UDG degree target stays 8, and the connectivity
// retries run out for a share of seeds that grows with n. It hits the
// defect requests (mis@udg/4096) most, and decay-broadcast@phy:sinr/2048
// now and then.
const defectMarker = "no connected UDG("

type plannedReq struct {
	at    time.Duration // offset of the scheduled send from the run start
	spec  serve.Spec
	class string
	async bool
}

type mixSizes struct {
	small  []string // algo@graph/n
	medium []string
	flood  string
	defect string
}

func serveMixSizes(tiny bool) mixSizes {
	if tiny {
		return mixSizes{
			small:  []string{"mis@grid/49", "broadcast@path/32", "flood@churn:grid/36", "mis@phy:sinr/36"},
			medium: []string{"mis@grid/64", "broadcast@gnp/64", "decay-broadcast@phy:sinr/64"},
			flood:  "flood@churn:grid/64",
			defect: "mis@udg/4096",
		}
	}
	return mixSizes{
		small:  []string{"mis@grid/49", "broadcast@path/32", "flood@churn:grid/36", "mis@phy:sinr/36"},
		medium: []string{"mis@grid/1024", "broadcast@gnp/512", "decay-broadcast@phy:sinr/2048"},
		flood:  "flood@churn:grid/1024",
		defect: "mis@udg/4096",
	}
}

// parseEntry parses algo@graph/n.
func parseEntry(s string) serve.Spec {
	algo, rest, _ := strings.Cut(s, "@")
	i := strings.LastIndex(rest, "/")
	n, err := strconv.Atoi(rest[i+1:])
	if err != nil {
		panic("perfbench: bad mix entry " + s)
	}
	return serve.Spec{Algo: algo, Graph: rest[:i], N: n}
}

// planServeMix builds the run's schedule from the seed: the class of every
// request by fixed quotas, Poisson arrival times at serveRateHz, and the
// spec of every request.
func planServeMix(seed uint64, seconds int, tiny bool) []plannedReq {
	rng := rand.New(rand.NewSource(int64(seed)))
	sizes := serveMixSizes(tiny)
	total := max(int(serveRateHz*float64(seconds)+0.5), 8)

	type slot struct {
		class string
		async bool
	}
	var special []slot
	add := func(n int, s slot) {
		for i := 0; i < n; i++ {
			special = append(special, s)
		}
	}
	perRun := func(hz float64, least int) int { return max(least, int(hz*float64(seconds)+0.5)) }
	add(perRun(mediumSyncHz, 1), slot{class: classMedium})
	add(perRun(floodHz, 2), slot{class: classFlood})
	add(perRun(asyncHz, 1), slot{class: classMedium, async: true})
	rng.Shuffle(len(special), func(i, j int) { special[i], special[j] = special[j], special[i] })
	// Every request but a small one goes, in seeded order, to its own of
	// len(special) equal stretches of the schedule, at a seeded place in
	// it; small requests fill the rest. Placed freely, the
	// engine-bound requests bunched on some seeds and not on others, and
	// the small requests that waited behind two engines at once set the
	// run's p99: it ranged over 11-18 ms between seeds.
	slots := make([]slot, total-1)
	for i := range slots {
		slots[i] = slot{class: classSmall}
	}
	for j, s := range special {
		lo, hi := j*len(slots)/len(special), (j+1)*len(slots)/len(special)
		slots[lo+rng.Intn(hi-lo)] = s
	}
	// The defect request goes last: the one seed in ten whose deployment
	// connects runs MIS at n=4096 and holds a worker for seconds, which in
	// mid-schedule decided the run's p99 by itself.
	slots = append(slots, slot{class: classDefect})

	// Small specs: a seeded Zipf over mix×seeds specs, so popular specs stay
	// in memory while the tail is evicted to the durable store.
	nSmall := len(sizes.small) * smallSeeds
	zipf := rand.NewZipf(rng, 1.05, 1, uint64(nSmall-1))
	perm := rng.Perm(nSmall)
	floodSeeds := make([]uint64, floodFamilies)
	for i := range floodSeeds {
		floodSeeds[i] = opSeed(seed, 1<<20+i)
	}

	plan := make([]plannedReq, len(slots))
	var at time.Duration
	medium, mediumSync := 0, 0
	for i, s := range slots {
		at += time.Duration(rng.ExpFloat64() / serveRateHz * float64(time.Second))
		var sp serve.Spec
		switch s.class {
		case classSmall:
			k := perm[zipf.Uint64()]
			sp = parseEntry(sizes.small[k%len(sizes.small)])
			sp.Seed = opSeed(seed, 1<<21+k/len(sizes.small))
		case classMedium:
			// Sync medium requests take the medium specs in turn; async
			// jobs are all the first, so the median job time is of one
			// kind of job.
			k := 0
			if !s.async {
				k = mediumSync % len(sizes.medium)
				mediumSync++
			}
			sp = parseEntry(sizes.medium[k])
			sp.Seed = opSeed(seed, 1<<22+medium)
			medium++
		case classFlood:
			sp = parseEntry(sizes.flood)
			sp.Seed = floodSeeds[rng.Intn(floodFamilies)]
			sp.Epochs = 4 * (1 + rng.Intn(6))
		case classDefect:
			sp = parseEntry(sizes.defect)
			sp.Seed = opSeed(seed, 1<<23+i)
		}
		plan[i] = plannedReq{at: at, spec: sp, class: s.class, async: s.async}
	}
	return plan
}

// outcome is what one request observed.
type outcome struct {
	lat  time.Duration // scheduled send → body (or job result) complete
	late time.Duration // scheduled send → handed to the client
	// status is "ok"; "sinr-invalid", a phy:sinr MIS the service reports
	// as not independent (errSINRInvalidMIS); "defect", the known generator
	// defect; or "failed". Only "ok" counts towards ok_share and slo_share.
	status string
	err    string
	bad    string // a failed correctness check
	hash   string
	digest [32]byte // of the result body
	cache  string   // X-Cache of a sync response
}

// server is a running radionet-serve process.
type server struct {
	cmd  *exec.Cmd
	base string
	out  chan struct{} // closed once its stdout is drained
}

func startServer(bin, dataDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, out: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	_, addr, found := strings.Cut(strings.TrimSpace(line), "listening on ")
	if err != nil || !found {
		s.kill()
		return nil, fmt.Errorf("server did not start (%q): %v", line, err)
	}
	s.base = addr
	go func() {
		defer close(s.out)
		_, _ = io.Copy(io.Discard, br) // keep the server's stdout from blocking
	}()
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 500 {
			s.kill()
			return nil, fmt.Errorf("server at %s never became healthy: %v", s.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the server down gracefully and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	timer := time.AfterFunc(20*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.out
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	return nil
}

// kill ends the server on an error path and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // it may already have exited
	if s.out != nil && s.base != "" {
		<-s.out
	}
	_ = s.cmd.Wait() // the error being handled is already reported
}

// hostSamples are the window samples of a run: the server's peak RSS per
// window and the host's CPU ticks at every window boundary.
type hostSamples struct {
	peaks []float64
	ticks []cpuTicks // ticks[w] and ticks[w+1] bound window w
}

// sampleHost samples every interval, from now until the returned stop
// function is called: the server's VmHWM, which it then resets
// (clear_refs "5"), and /proc/stat. The last window is partial. Where the
// reset is refused the one process-wide peak is returned.
func sampleHost(pid string, every time.Duration) func() (hostSamples, error) {
	reset := func() bool { return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) == nil }
	resettable := reset()
	stop := make(chan struct{})
	result := make(chan hostSamples, 1)
	h := hostSamples{ticks: []cpuTicks{readCPUTicks()}}
	go func() {
		peak := func() {
			if mb, err := vmHWMMB(pid); err == nil {
				h.peaks = append(h.peaks, mb)
			}
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.ticks = append(h.ticks, readCPUTicks())
				if resettable {
					peak()
					reset()
				}
			case <-stop:
				h.ticks = append(h.ticks, readCPUTicks())
				peak()
				result <- h
				return
			}
		}
	}()
	return func() (hostSamples, error) {
		close(stop)
		h := <-result
		if len(h.peaks) == 0 {
			return h, fmt.Errorf("no VmHWM sample of process %s", pid)
		}
		return h, nil
	}
}

// net scales a duration observed in the window holding offset at by one
// minus that window's steal share (see stealShare).
func (h hostSamples) net(at, d time.Duration) time.Duration {
	w := min(int(at/window), len(h.ticks)-2)
	if w < 0 {
		return d
	}
	return time.Duration(float64(d) * (1 - stealShare(h.ticks[w], h.ticks[w+1])))
}

func runServeMix(o options, w workload, rep *report) error {
	if o.serveBin == "" {
		return errors.New("serve-mix needs -serve-bin (perfbench/run.sh builds it)")
	}
	root := o.workDir
	if root == "" {
		root = os.TempDir()
	}
	runDir, err := os.MkdirTemp(root, "serve-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	var setups []float64
	var srv *server
	syncFS(runDir)
	for i := 0; i < setupLaunches; i++ {
		t0 := time.Now()
		next, err := startServer(o.serveBin, filepath.Join(runDir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if srv != nil {
			if err := srv.stop(); err != nil {
				next.kill()
				return err
			}
		}
		srv = next
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	plan := planServeMix(o.seed, o.seconds, o.tiny)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var before, after promSnapshot
	if o.trace {
		if before, err = scrape(client, srv.base); err != nil {
			return err
		}
	}
	stopSampling := sampleHost(strconv.Itoa(srv.cmd.Process.Pid), window)
	outs := runSchedule(client, srv.base, plan, o.corrupt)
	host, err := stopSampling()
	if err != nil {
		return err
	}
	// The latency metrics leave out the requests scheduled in the first
	// eighth of the run, while the cold cache fills (warm). Latencies are
	// taken net of hypervisor steal, window by window, except for
	// req_ms.p50 (NOTES.md); the other raw figures stay in extra.
	warm := o.duration() / 8
	raw := make([]float64, len(outs))
	var steadyRaw []float64
	for i := range outs {
		raw[i] = float64(outs[i].lat) / float64(time.Millisecond)
		if plan[i].at >= warm {
			steadyRaw = append(steadyRaw, raw[i])
		}
		outs[i].lat = host.net(plan[i].at, outs[i].lat)
	}
	rep.Extra["req_ms.p99.raw"] = quantile(steadyRaw, 0.99)
	if o.trace {
		if after, err = scrape(client, srv.base); err != nil {
			return err
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}

	lats, asyncLats, lates := summarize(rep, plan, outs, w.slo, warm)
	lateP99 := 1000 * quantile(lates, 0.99)
	if lateP99 > float64(sendLateLimit.Milliseconds()) {
		rep.Valid = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("invalid: the generator ran %.1f ms late at p99 (limit %v); latencies would measure the generator", lateP99, sendLateLimit))
	}
	if o.trace {
		rep.set("harness.send_late_ms.p99", lateP99)
		serveLayers(rep, before, after)
		return tracedMissPath(rep, plan, outs)
	}
	rep.Extra["harness.send_late_ms.p99"] = lateP99
	setSetup(rep, setups)
	rep.set("job_s.p50", quantile(asyncLats, 0.5))
	var steady []float64
	for i, p := range plan {
		if p.at >= warm {
			steady = append(steady, lats[i])
		}
	}
	rep.set("req_ms.p50", windowMedian(plan, raw, warm))
	rep.Extra["req_ms.p50.net"] = windowMedian(plan, lats, warm)
	rep.Extra["req_ms.p50.whole_run"] = quantile(raw, 0.5)
	rep.set("req_ms.p99", quantile(steady, 0.99))
	rep.Extra["req_ms.p99.whole_run"] = quantile(lats, 0.99)
	rep.set("mem_peak_mb", quantile(host.peaks, 1))
	rep.Extra["mem_peak_mb.window_p50"] = quantile(host.peaks, 0.5)
	rep.Notes = append(rep.Notes, fmt.Sprintf("open loop at %g req/s over %d keep-alive connections; %d requests, %d async jobs", serveRateHz, serveConns, len(lats), len(asyncLats)))
	return nil
}

// saturateServeMix measures the capacity serveRateHz is derived from
// (NOTES.md): it sends the run's planned requests back to back, ignoring
// their schedule, over serveConns concurrent senders, and reports the
// completed requests per second as extra saturation_rps. The defect request
// is left out: it would end the run with seconds of one busy worker.
func saturateServeMix(o options, w workload, rep *report) error {
	runDir, err := os.MkdirTemp(o.workDir, "serve-saturate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	srv, err := startServer(o.serveBin, filepath.Join(runDir, "data"))
	if err != nil {
		return err
	}
	var plan []plannedReq
	for _, p := range planServeMix(o.seed, o.seconds, o.tiny) {
		if p.class != classDefect {
			plan = append(plan, p)
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	outs := make([]outcome, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(plan); i = int(next.Add(1)) - 1 {
				outs[i] = send(context.Background(), client, srv.base, plan[i], time.Now(), false)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := srv.stop(); err != nil {
		return err
	}
	summarize(rep, plan, outs, w.slo, 0)
	rep.Extra["saturation_rps"] = float64(len(plan)) / elapsed.Seconds()
	// The open loop's load: the share of the server's capacity that the
	// schedule asks for.
	rep.Extra["schedule_load"] = serveRateHz / rep.Extra["saturation_rps"]
	return nil
}

// runSchedule sends every planned request at its scheduled time (each on
// its own goroutine, so a slow response never delays later sends) and
// waits for all of them, bounded by drainTimeout after the last send. With
// corrupt set every result is corrupted before it is checked.
func runSchedule(client *http.Client, base string, plan []plannedReq, corrupt bool) []outcome {
	outs := make([]outcome, len(plan))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		due := start.Add(p.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, p plannedReq) {
			defer wg.Done()
			out := send(ctx, client, base, p, due, corrupt)
			out.late = late
			outs[i] = out
		}(i, p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		cancel() // outstanding requests fail with the context error
		<-done
	}
	return outs
}

// send performs one planned request and checks its result.
func send(ctx context.Context, client *http.Client, base string, p plannedReq, due time.Time, corrupt bool) outcome {
	var out outcome
	c, err := p.spec.Canonicalize()
	if err != nil {
		out.status, out.err = "failed", err.Error()
		return out
	}
	out.hash = c.Hash()
	var body []byte
	if p.async {
		body, err = sendJob(ctx, client, base, p.spec, out.hash)
	} else {
		body, out.cache, err = sendSync(ctx, client, base, p.spec, out.hash)
	}
	out.lat = time.Since(due)
	switch {
	case err == nil:
	case knownDefect(err):
		out.status = "defect"
		return out
	default:
		out.status, out.err = "failed", err.Error()
		if errors.Is(err, errMismatch) {
			out.bad = err.Error()
		}
		return out
	}
	if corrupt {
		body = corruptBody(body)
	}
	out.status, out.digest = "ok", sha256.Sum256(body)
	if err := checkBody(p.spec, body); errors.Is(err, errSINRInvalidMIS) {
		out.status = "sinr-invalid"
	} else if err != nil {
		out.status, out.bad = "failed", err.Error()
	}
	return out
}

// knownDefect reports whether a request failed with the recorded generator
// defect: an HTTP 500 on the sync path, a failed job on the async path.
func knownDefect(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.code == http.StatusInternalServerError && strings.Contains(he.body, defectMarker)
	}
	var je *jobError
	return errors.As(err, &je) && strings.Contains(je.msg, defectMarker)
}

type jobError struct{ id, msg string }

func (e *jobError) Error() string { return fmt.Sprintf("job %s failed: %s", e.id, e.msg) }

// errMismatch marks a response that contradicts the request (wrong hash).
var errMismatch = errors.New("response does not match the request")

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// do sends one request and reads the whole body; non-2xx is an httpError.
func do(ctx context.Context, client *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp, b, &httpError{code: resp.StatusCode, body: string(b)}
	}
	return resp, b, nil
}

func sendSync(ctx context.Context, client *http.Client, base string, sp serve.Spec, hash string) ([]byte, string, error) {
	js, err := json.Marshal(sp)
	if err != nil {
		return nil, "", err
	}
	resp, body, err := do(ctx, client, http.MethodPost, base+"/v1/simulate", js)
	if err != nil {
		return nil, "", err
	}
	if got := resp.Header.Get("X-Spec-Hash"); got != hash {
		return nil, "", fmt.Errorf("%w: X-Spec-Hash %s, want %s", errMismatch, got, hash)
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// sendJob submits an async job, polls it to completion and fetches the
// result.
func sendJob(ctx context.Context, client *http.Client, base string, sp serve.Spec, hash string) ([]byte, error) {
	js, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	_, body, err := do(ctx, client, http.MethodPost, base+"/v1/jobs", js)
	for {
		if err != nil {
			return nil, err
		}
		var v serve.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("job view: %w", err)
		}
		if v.SpecHash != hash {
			return nil, fmt.Errorf("%w: job spec_hash %s, want %s", errMismatch, v.SpecHash, hash)
		}
		switch v.State {
		case serve.JobDone:
			_, res, err := do(ctx, client, http.MethodGet, base+v.Result, nil)
			return res, err
		case serve.JobFailed:
			return nil, &jobError{id: v.ID, msg: v.Error}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
		_, body, err = do(ctx, client, http.MethodGet, base+"/v1/jobs/"+v.ID, nil)
	}
}

// summarize folds the outcomes into the report: counts, correctness (a
// repeated spec must return byte-identical results), the end-to-end
// shares and per-class diagnostics. slo_share counts the requests
// scheduled from warm on. It returns every request's latency, the async
// jobs' latencies (seconds) and the send lateness.
func summarize(rep *report, plan []plannedReq, outs []outcome, slo, warm time.Duration) (lats, asyncLats, lates []float64) {
	digests := map[string][32]byte{}
	ok, inSLO, measured := 0, 0, 0
	classLats := map[string][]float64{}
	tiers := map[string]float64{}
	for i, out := range outs {
		p := plan[i]
		rep.Attempted++
		ms := float64(out.lat) / float64(time.Millisecond)
		lats = append(lats, ms)
		lates = append(lates, out.late.Seconds())
		classLats[p.class] = append(classLats[p.class], ms)
		if p.async {
			asyncLats = append(asyncLats, out.lat.Seconds())
		}
		if out.bad != "" {
			rep.fail("request %d (%s %s): %s", i, p.class, p.spec.Graph, out.bad)
		}
		if p.at >= warm {
			measured++
		}
		switch out.status {
		case "ok", "sinr-invalid":
			if out.status == "ok" {
				ok++
				if p.at >= warm && out.lat <= slo {
					inSLO++
				}
			} else {
				rep.SINRInvalidMIS++
			}
			if d, seen := digests[out.hash]; seen && d != out.digest {
				rep.fail("request %d: spec %s returned a different body than before", i, out.hash[:12])
			}
			digests[out.hash] = out.digest
			if out.cache != "" {
				tiers[out.cache]++
			}
		case "defect":
			rep.KnownDefect++
		default:
			rep.Failed++
			if out.bad == "" && len(rep.Errors) < 8 {
				rep.Errors = append(rep.Errors, fmt.Sprintf("request %d (%s %s): %s", i, p.class, p.spec.Graph, out.err))
			}
		}
	}
	rep.set("slo_share", ratio(float64(inSLO), float64(measured)))
	rep.set("ok_share", ratio(float64(ok), float64(rep.Attempted)))
	for class, xs := range classLats {
		rep.Extra["req_ms.p50."+class] = quantile(xs, 0.5)
		rep.Extra["req_ms.p99."+class] = quantile(xs, 0.99)
		rep.Extra["requests."+class] = float64(len(xs))
	}
	for tier, n := range tiers {
		rep.Extra["x_cache."+tier] = n
	}
	rep.Extra["distinct_specs"] = float64(len(digests))
	if rep.SINRInvalidMIS > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d responses carried a phy:sinr MIS that is not independent; they count as not OK", rep.SINRInvalidMIS))
	}
	if rep.KnownDefect > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d requests hit the known generator defect (%q...)", rep.KnownDefect, defectMarker))
	}
	return lats, asyncLats, lates
}

// windowMedian is the median over window-long stretches of the schedule,
// from warm on, of each stretch's median latency.
func windowMedian(plan []plannedReq, lats []float64, warm time.Duration) float64 {
	byWindow := map[int64][]float64{}
	for i, p := range plan {
		if p.at < warm {
			continue
		}
		w := int64(p.at / window)
		byWindow[w] = append(byWindow[w], lats[i])
	}
	var meds []float64
	for _, xs := range byWindow {
		meds = append(meds, quantile(xs, 0.5))
	}
	return quantile(meds, 0.5)
}

// tracedMissPath rebuilds, in this process, the first medium mis and
// broadcast specs of the schedule through the traced layers — the miss
// path of the service — checks them against the server's results, and
// reports the engine layers and the tracing overhead.
func tracedMissPath(rep *report, plan []plannedReq, outs []outcome) error {
	l := &layers{}
	var untraced float64
	for _, algo := range []string{"mis", "broadcast"} {
		for i, p := range plan {
			if p.class != classMedium || p.spec.Algo != algo || outs[i].status != "ok" {
				continue
			}
			values, _, err := tracedJob(p.spec, l)
			if err != nil {
				rep.fail("traced rebuild of %s@%s/%d: %v", algo, p.spec.Graph, p.spec.N, err)
				break
			}
			t0 := time.Now()
			res, err := serve.Execute(p.spec, 1, nil)
			if err != nil {
				return err
			}
			body, err := res.JSON()
			if err != nil {
				return err
			}
			untraced += time.Since(t0).Seconds()
			if sha256.Sum256(body) != outs[i].digest {
				rep.fail("serve.Execute of %s differs from the server's result", outs[i].hash[:12])
			}
			if err := checkEquivalent(values, body); err != nil {
				rep.fail("traced rebuild of %s@%s/%d differs from serve.Execute: %v", algo, p.spec.Graph, p.spec.N, err)
			}
			break
		}
	}
	l.layerMetrics(rep)
	rep.set("trace.untraced_job_s", untraced)
	rep.set("trace.overhead_ratio", ratio(l.Job, untraced))
	rep.Notes = append(rep.Notes, "engine layers: in-process traced rebuild of the first medium mis and broadcast specs (the miss path)")
	return nil
}
