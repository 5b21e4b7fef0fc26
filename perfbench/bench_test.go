package main

// The benchmark's self-test: every workload in tiny mode must emit every
// metric BENCHMARK.json names, with its unit, and a corrupted result must
// fail the run. Run with `go test ./...` from this directory.

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestMain lets the test binary act as the engine worker, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		if err := workerMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// units maps BENCHMARK.json's metric names to units, per kind of run.
func (bf benchmarkFile) units(trace bool) map[string]string {
	m := map[string]string{}
	if trace {
		for _, d := range bf.PerLayer {
			m[d.Name] = d.Unit
		}
	} else {
		for _, d := range bf.EndToEnd {
			m[d.Name] = d.Unit
		}
	}
	return m
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := loadBenchmark(t)
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		want := bf.units(trace)
		if len(want) != len(defs) {
			t.Errorf("trace=%v: BENCHMARK.json has %d metrics, the catalog %d", trace, len(want), len(defs))
		}
		for _, d := range defs {
			if want[d.name] != d.unit {
				t.Errorf("metric %s: catalog unit %q, BENCHMARK.json %q", d.name, d.unit, want[d.name])
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		cfg, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
			continue
		}
		// The SLO limit, the arrival rate and the spec sizes are recorded
		// in the workload's why; keep them in step with the code.
		if !strings.Contains(w.Why, sloText(cfg.slo)) {
			t.Errorf("workload %s: why %q does not state the SLO %q", w.Name, w.Why, sloText(cfg.slo))
		}
		if cfg.engine != nil {
			sp := cfg.engine.spec
			entry := sp.Algo + "@" + sp.Graph + "/" + strconv.Itoa(sp.N)
			if !strings.Contains(w.Why, entry) {
				t.Errorf("workload %s: why %q does not name the spec %s", w.Name, w.Why, entry)
			}
		} else {
			rate := strconv.Itoa(int(serveRateHz)) + " req/s"
			if !strings.Contains(w.Why, rate) || !strings.Contains(w.Why, strconv.Itoa(serveConns)+" keep-alive") {
				t.Errorf("workload %s: why %q does not state the rate %s and %d connections", w.Name, w.Why, rate, serveConns)
			}
		}
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code defines %s", got, want)
	}
}

// sloText renders an SLO limit as BENCHMARK.json states it ("SLO 60 s",
// "SLO 100 ms").
func sloText(d time.Duration) string {
	if d%time.Second == 0 {
		return "SLO " + strconv.Itoa(int(d/time.Second)) + " s"
	}
	return "SLO " + strconv.Itoa(int(d/time.Millisecond)) + " ms"
}

// serveBinary builds radionet-serve once for the serve-mix tests.
func serveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "radionet-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/radionet-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build radionet-serve: %v\n%s", err, out)
	}
	return bin
}

func tinyOptions(t *testing.T, workload string, trace bool, serveBin string) options {
	return options{
		workload: workload, seed: 1, seconds: 2, trace: trace, tiny: true,
		serveBin: serveBin, workDir: t.TempDir(),
	}
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmark(t)
	bin := serveBinary(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinyOptions(t, name, trace, bin))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d errors=%v", name, trace, res.Correct, res.Attempted, rep.Errors)
			}
			want := bf.units(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				m, ok := res.Metrics[metric]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, metric)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, metric, m.Unit, unit)
				}
			}
			if trace && res.Metrics["radio.steps"].Value == 0 {
				t.Errorf("%s: traced run measured no engine steps", name)
			}
		}
	}
}

func TestCorruptedResultFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	bin := serveBinary(t)
	for _, name := range []string{"mis-sinr", "bcast-udg", "serve-mix"} {
		o := tinyOptions(t, name, false, bin)
		o.corrupt = true
		rep, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.result().Correct {
			t.Errorf("%s: a corrupted result passed the checks", name)
		}
	}
}

func TestChecksRejectWrongResults(t *testing.T) {
	sp := serve.Spec{Algo: "mis", Graph: "grid", N: 16, Seed: 3}
	res, err := serve.Execute(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBody(sp, body); err != nil {
		t.Fatalf("a correct result failed: %v", err)
	}
	other := sp
	other.Seed = 4
	if err := checkBody(other, body); err == nil {
		t.Error("a result for another spec passed")
	}
	if err := checkBody(sp, corruptBody(body)); err == nil {
		t.Error("an invalid MIS passed")
	}
	if err := checkBody(sp, body[:len(body)/2]); err == nil {
		t.Error("a truncated result passed")
	}

	// A repeated spec must return byte-identical bodies.
	rep := newReport(options{seed: 1, seconds: 1}, workloads["serve-mix"])
	plan := []plannedReq{{spec: sp, class: classSmall}, {spec: sp, class: classSmall}}
	h := strings.Repeat("ab", 32)
	outs := []outcome{{status: "ok", hash: h, digest: [32]byte{1}}, {status: "ok", hash: h, digest: [32]byte{2}}}
	summarize(rep, plan, outs, time.Second, 0)
	if rep.Correct {
		t.Error("two different bodies for one spec passed")
	}
}

// An invalid phy:sinr MIS is the program's known defect: it does not fail
// the run, but it must not count as OK either.
func TestSINRInvalidMISIsNotOK(t *testing.T) {
	rows := map[string]string{"completed": "1", "valid": "0"}
	if err := checkSamples("mis", true, rows); !errors.Is(err, errSINRInvalidMIS) {
		t.Fatalf("phy:sinr MIS with valid=0: %v, want errSINRInvalidMIS", err)
	}
	if err := checkSamples("mis", false, rows); err == nil || errors.Is(err, errSINRInvalidMIS) {
		t.Fatalf("graph-model MIS with valid=0: %v, want a failed check", err)
	}

	rep := newReport(options{seed: 1, seconds: 1}, workloads["serve-mix"])
	sp := serve.Spec{Algo: "mis", Graph: "phy:sinr", N: 36, Seed: 1}
	plan := []plannedReq{{spec: sp, class: classSmall}, {spec: sp, class: classSmall}}
	h := strings.Repeat("cd", 32)
	outs := []outcome{{status: "sinr-invalid", hash: h}, {status: "sinr-invalid", hash: h}}
	summarize(rep, plan, outs, time.Second, 0)
	if !rep.Correct || rep.SINRInvalidMIS != 2 {
		t.Errorf("correct=%v sinr_invalid_mis=%d, want true and 2", rep.Correct, rep.SINRInvalidMIS)
	}
	for _, m := range []string{"ok_share", "slo_share"} {
		if v := rep.Metrics[m].Value; v != 0 {
			t.Errorf("%s = %v with every response an invalid MIS, want 0", m, v)
		}
	}
}

// The serve-mix schedule has the class counts NOTES.md states, takes every
// medium spec, spreads the engine-bound requests and sends the defect last.
func TestServeMixPlan(t *testing.T) {
	plan := planServeMix(7, 40, false)
	if len(plan) != 10000 || plan[len(plan)-1].class != classDefect {
		t.Fatalf("%d requests, last %s; want 10000 ending with the defect", len(plan), plan[len(plan)-1].class)
	}
	counts := map[string]int{}
	var gaps []time.Duration
	var last time.Duration
	for i, p := range plan {
		if i > 0 && p.at < plan[i-1].at {
			t.Fatalf("request %d is scheduled before request %d", i, i-1)
		}
		key := p.class
		if p.class == classMedium {
			key = p.spec.Algo + "@" + p.spec.Graph
			if p.async {
				key += " async"
			}
		}
		counts[key]++
		if p.class != classSmall && p.class != classDefect {
			gaps = append(gaps, p.at-last)
			last = p.at
		}
	}
	want := map[string]int{
		classSmall: 9964, classFlood: 20, classDefect: 1,
		"mis@grid": 1, "broadcast@gnp": 1, "decay-broadcast@phy:sinr": 1, "mis@grid async": 12,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s: %d requests, want %d", k, counts[k], n)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("classes %v, want %v", counts, want)
	}
	// One engine-bound request per 1/35 of the schedule: no two are more
	// than two stretches (about 2.3 s) apart.
	for i, g := range gaps {
		if g > 2300*time.Millisecond {
			t.Errorf("engine-bound request %d comes %v after the previous one", i, g)
		}
	}
}

func TestTracedRebuildMatchesExecute(t *testing.T) {
	for _, sp := range []serve.Spec{
		{Algo: "mis", Graph: "phy:sinr", N: 128, Seed: 5},
		{Algo: "mis", Graph: "grid", N: 64, Seed: 6},
		{Algo: "broadcast", Graph: "udg", N: 128, Seed: 7},
	} {
		l := &layers{}
		values, traced, err := tracedJob(sp, l)
		if err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		res, err := serve.Execute(sp, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEquivalent(values, body); err != nil {
			t.Errorf("%+v: %v", sp, err)
		}
		if string(traced) != string(body) {
			t.Errorf("%+v: the traced rebuild encodes a different result than serve.Execute", sp)
		}
		if l.Steps == 0 || l.ResolveCalls != l.Steps {
			t.Errorf("%+v: %d steps, %d resolve calls", sp, l.Steps, l.ResolveCalls)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	before, err := parseProm("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 11\nh_bucket{le=\"+Inf\"} 11\n")
	if err != nil {
		t.Fatal(err)
	}
	// Ten new observations, all in (1, 2]: the median interpolates to 1.5.
	if got := histQuantile(before, after, "h", nil, 0.5); got != 1.5 {
		t.Errorf("median %v, want 1.5", got)
	}
}
