package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report is everything one run learned. It is printed in full on the line
// before the result line; result() projects the result line's object.
type report struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Tiny       bool       `json:"tiny,omitempty"`
	Provenance provenance `json:"provenance"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// KnownDefect counts responses that hit the recorded generator defect
	// (NOTES.md): neither OK nor failed; they lower ok_share and slo_share.
	KnownDefect int `json:"known_defect"`
	// SINRInvalidMIS counts phy:sinr MIS results the service reported as
	// not valid (check.go, errSINRInvalidMIS): not OK, and not failed.
	SINRInvalidMIS int `json:"sinr_invalid_mis"`
	// Valid is false when the measurement itself is untrustworthy (the
	// serve-mix generator fell behind its schedule).
	Valid  bool     `json:"valid"`
	Errors []string `json:"errors,omitempty"`
	Notes  []string `json:"notes,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
	// Extra holds diagnostics that are not BENCHMARK.json metrics (sample counts,
	// per-class latencies, the generator's lateness on untraced runs).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records where and how a run was measured.
type provenance struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	RateHz     float64 `json:"rate_hz,omitempty"`
	SLOms      float64 `json:"slo_ms"`
}

func newReport(o options, w workload) *report {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     sourceDigest(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		SLOms:      float64(w.slo.Milliseconds()),
	}
	if w.engine == nil {
		p.RateHz = serveRateHz
	}
	return &report{
		Workload: w.name, Trace: o.trace, Tiny: o.tiny, Provenance: p,
		Correct: true, Valid: true,
		Metrics: map[string]metricValue{}, Extra: map[string]float64{},
	}
}

// fail records a correctness failure: the run's result is then wrong, not
// slow, and the run reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// set records a metric, taking its unit from the catalog.
func (r *report) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// result is the last line's object. The metric set is exactly the
// catalog of the run's kind; a missing metric is a bug in the benchmark, so
// the run fails rather than print a partial set.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := result{Correct: r.Correct && r.Valid, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			out.Correct = false
			r.Errors = append(r.Errors, "metric "+d.name+" was not measured")
			continue
		}
		out.Metrics[d.name] = m
	}
	if out.Attempted < 1 {
		out.Correct = false
	}
	return out
}

// setSetup reports setup_s, the median of a run's launch times, with the
// fastest launch in extra. Unlike the other times it is not taken net of
// steal: /proc/stat counts in 10 ms ticks, and over launches that span
// 0.1-0.5 s the steal share is mostly rounding (it moved bcast-udg's
// figure by up to 31%).
func setSetup(rep *report, setups []float64) {
	rep.set("setup_s", quantile(setups, 0.5))
	rep.Extra["setup_s.min"] = quantile(setups, 0)
}

// syncFS fsyncs dir before the set-up launches, which commits the file
// system's pending metadata, so that they do not pay for the writeback of
// earlier work: the build, or an earlier run's data directories. Errors
// are ignored; the flush only steadies the measurement.
func syncFS(dir string) {
	if dir == "" {
		dir = "."
	}
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	_ = f.Sync()
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// sourceDigest identifies the measured code: the git commit is not
// available in a plain checkout, so it digests every Go source and module
// file of the repository (build output excluded).
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("perfbench"); err == nil {
			root = "."
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks is the host-wide CPU time split from /proc/stat, in ticks.
type cpuTicks struct{ busy, steal, total float64 }

// readCPUTicks reads /proc/stat's aggregate line (zero if unreadable).
// Steal is time the hypervisor ran other guests while this guest's CPUs
// had work; it inflates every wall-time metric.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; the guest fields that
	// may follow are already counted in user and nice.
	for i, f := range fields[1:9] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuTicks{}
		}
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t
}

// stealShare is the share of the busy CPU time between a and b that the
// hypervisor took away: the time the guest's runnable CPUs spent waiting.
func stealShare(a, b cpuTicks) float64 {
	return ratio(b.steal-a.steal, b.busy-a.busy)
}

// vmHWMMB reads a process's peak resident set (VmHWM) in MB.
func vmHWMMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
