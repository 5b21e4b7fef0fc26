package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E7", "E12", "E15"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E6", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bad scales") {
		t.Fatalf("E6 output missing table:\n%s", buf.String())
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E3, E4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "E4") {
		t.Fatalf("missing experiment sections:\n%s", out)
	}
}

func TestJSONFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	var buf bytes.Buffer
	if err := run([]string{"-run", "E3", "-seed", "2", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "frac High") {
		t.Fatalf("markdown output missing table:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res exp.Results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("results are not valid JSON: %v", err)
	}
	if res.Scale != "quick" || res.Seed != 2 {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if len(res.Experiments) != 1 || res.Experiments[0].ID != "E3" {
		t.Fatalf("experiments wrong: %+v", res.Experiments)
	}
	if len(res.Experiments[0].Tables) == 0 || len(res.Experiments[0].Tables[0].Rows) == 0 {
		t.Fatal("tables empty")
	}
}

// TestParallelFlagDeterminism is the CLI half of the determinism-under-
// parallelism contract: same seed, different -parallel, identical bytes
// (Markdown and JSON).
func TestParallelFlagDeterminism(t *testing.T) {
	render := func(parallel string) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "r.json")
		var buf bytes.Buffer
		if err := run([]string{"-run", "E4", "-seed", "9", "-parallel", parallel, "-json", path}, &buf); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), raw
	}
	md1, js1 := render("1")
	md3, js3 := render("3")
	if md1 != md3 {
		t.Fatalf("-parallel 1 vs 3 markdown differs:\n%s\n---\n%s", md1, md3)
	}
	if !bytes.Equal(js1, js3) {
		t.Fatal("-parallel 1 vs 3 JSON differs")
	}
}

// TestEngineBenchReport checks the -engine-bench report's schema and its
// allocation invariants. It measures through measureEngineBench rather than
// run: the -engine-bench command also applies checkObsOverhead, a wall-clock
// gate that belongs to the CI bench job, not to go test.
func TestEngineBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("engine benches take several seconds")
	}
	fresh, err := measureEngineBench(false, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEngineBench(fresh, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report EngineBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	// The default run excludes the opt-in huge rows (-bench-huge).
	wantRows := 0
	for _, s := range engineBenchSpecs {
		if !s.huge {
			wantRows++
		}
	}
	if len(report.Benchmarks) != wantRows {
		t.Fatalf("got %d benchmark rows, want %d", len(report.Benchmarks), wantRows)
	}
	byName := map[string]EngineBenchResult{}
	for _, r := range report.Benchmarks {
		if r.NsPerOp <= 0 || r.NodeStepsPerSec <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		byName[r.Name] = r
	}
	// The tracked engine invariant: the sequential step loop is
	// allocation-free, SINR transmit storms included.
	for _, name := range []string{"seq_dense_n1024", "seq_sparse_n4096_live64",
		"seq_sinr_n1024", "seq_sinr_n4096", "seq_sinr_storm_n8192", "seq_sinr_n65536"} {
		if r, ok := byName[name]; !ok {
			t.Fatalf("missing bench %s", name)
		} else if r.AllocsPerOp != 0 {
			t.Fatalf("%s allocates %d/op; the sequential step loop must be zero-alloc", name, r.AllocsPerOp)
		}
	}
	if len(report.SeedBaseline) == 0 {
		t.Fatal("seed baseline missing")
	}
}

// TestObsOverheadMedianOfPairs drives checkObsOverhead with a scripted
// measure: one pair spoiled by a load spike on the _obs side must not fail
// the gate, while a steady 5% tax must, and the pairs must alternate which
// side runs first.
func TestObsOverheadMedianOfPairs(t *testing.T) {
	report := EngineBenchReport{Benchmarks: []EngineBenchResult{{Name: "row"}, {Name: "row_obs"}, {Name: "other"}}}
	scripted := func(obsNs []float64) (func(string) float64, *[]string) {
		var order []string
		pair := 0
		return func(name string) float64 {
			order = append(order, name)
			if name == "row" {
				return 100
			}
			ns := obsNs[pair]
			pair++
			return ns
		}, &order
	}
	var log bytes.Buffer
	spike, order := scripted([]float64{101, 100, 180, 102, 100})
	if err := checkObsOverhead(report, spike, &log); err != nil {
		t.Fatalf("one spiked pair failed the gate: %v", err)
	}
	want := []string{"row", "row_obs", "row_obs", "row", "row", "row_obs", "row_obs", "row", "row", "row_obs"}
	if !slices.Equal(*order, want) {
		t.Fatalf("measurement order %v, want alternating pairs %v", *order, want)
	}
	steady, _ := scripted([]float64{105, 104, 106, 105, 105})
	if err := checkObsOverhead(report, steady, &log); err == nil {
		t.Fatal("a steady 5% overhead passed the 3% gate")
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "gigantic"}, &buf); err == nil {
		t.Fatal("want scale error")
	}
	if err := run([]string{"-run", "E99"}, &buf); err == nil {
		t.Fatal("want unknown-experiment error")
	}
	if err := run([]string{"-notaflag"}, &buf); err == nil {
		t.Fatal("want flag-parse error")
	}
}
