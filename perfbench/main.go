// Command perfbench is the repository's end-to-end benchmark. It runs the
// paper's protocols the way users submit them — through serve.Execute for
// the engine workloads, through a radionet-serve process for serve-mix —
// checks every result, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload mis-sinr --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run rebuilds jobs from the layers' public entry points
// and reports per-layer metrics instead. See NOTES.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool   // tiny sizes: the self-test mode
	serveBin string // radionet-serve binary (serve-mix)
	workDir  string // scratch root inside the checkout
	corrupt  bool   // corrupt results before checking them (the self-test's check of the checks)
	saturate bool   // serve-mix only: measure the server's saturation throughput instead
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		if err := workerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.saturate {
		full, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("report %s\n", full)
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}
	correct, err := emit(os.Stdout, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny input sizes (self-test mode)")
	fs.StringVar(&o.serveBin, "serve-bin", "", "radionet-serve binary for serve-mix")
	fs.StringVar(&o.workDir, "work-dir", "", "scratch directory for server data (default: a temp dir)")
	fs.BoolVar(&o.saturate, "saturate", false, "serve-mix: send the schedule back to back and report the saturation throughput (prints the report only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return o, fmt.Errorf("unknown --workload %q (known: %v)", o.workload, workloadNames())
	}
	if o.saturate && (w.engine != nil || o.trace) {
		return o, fmt.Errorf("--saturate applies to the untraced serve-mix only")
	}
	return o, nil
}

// run dispatches one benchmark run to its workload.
func run(o options) (*report, error) {
	w := workloads[o.workload]
	rep := newReport(o, w)
	ticks := readCPUTicks()
	var err error
	switch {
	case w.engine != nil:
		err = runEngineWorkload(o, w, rep)
	case o.saturate:
		err = saturateServeMix(o, w, rep)
	default:
		err = runServeMix(o, w, rep)
	}
	if err != nil {
		return nil, err
	}
	end := readCPUTicks()
	rep.Extra["host.steal_share"] = ratio(end.steal-ticks.steal, end.total-ticks.total)
	return rep, nil
}

// emit prints the full report on one line, then the result line the
// benchmark's readers take: the last line of standard output. It returns
// the result's correct flag.
func emit(out io.Writer, rep *report) (bool, error) {
	res := rep.result()
	full, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(out, "report %s\n%s\n", full, line)
	return res.Correct, err
}
