// Command perfbench is the repository benchmark: it drives the susc front
// ends on two workloads, checks every verdict against a known answer, and
// prints one JSON result line.
//
//	perfbench -root DIR -susc BIN -out DIR -workload W -seed N -seconds S -trace 0|1
//
// Workloads (see LAYERS.md for what each loads and bypasses):
//
//	plan-family  susc plans/audit subprocesses over Chained(12,2)
//	serve-mix    an in-process server under a closed loop of one client
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate in-process replay of the workload's pipeline, wrapped in
// spans, gives the per-layer metrics. perfbench/run.sh builds the binaries
// and passes -root, -susc and -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	root     string // repository root (cwd of every subprocess)
	susc     string // the susc binary
	out      string // build/scratch root; work dirs live beneath it
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final stdout line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workloads maps a workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed  func(cfg config, ck *checker) (metrics, error)
	traced func(cfg config, ck *checker) (metrics, error)
}{
	"plan-family": {timedPlanFamily, tracedPlanFamily},
	"serve-mix":   {timedServeMix, tracedServeMix},
}

// A run times its set-up in batches of setupBatchSize: setupLead batches
// before the window and one more between parts of it. setup_s is the
// median batch mean. One set-up takes a millisecond or a few, and single
// ones vary by half (file writes, collections, the shared host), so each
// sample averages a batch and the median spans the run.
const (
	setupBatchSize = 32
	setupLead      = 4
)

func main() {
	var cfg config
	var traceFlag int
	var seconds int
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.susc, "susc", "", "path of the susc binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for work files")
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = timed end-to-end run")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if cfg.susc == "" {
		return fmt.Errorf("-susc is required")
	}
	var err error
	if cfg.susc, err = filepath.Abs(cfg.susc); err != nil {
		return err
	}
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return err
	}
	work := filepath.Join(cfg.out, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	cfg.out = work
	ck := &checker{}
	fn := w.timed
	if cfg.trace {
		fn = w.traced
	}
	m, err := fn(cfg, ck)
	if err != nil {
		return err
	}
	if ck.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	ck.report()
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// workDir makes a fresh scratch directory for one run under cfg.out.
func workDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// checker counts attempted and failed operations. A failure is any
// deviation from the known answer: wrong verdict, wrong exit code, a
// transport error, an unexpected status (429 included) or an error
// control line.
type checker struct {
	attempted int
	failed    int
	first     []string
}

// check records one operation; a non-empty problem marks it failed.
func (c *checker) check(what, problem string) bool {
	c.attempted++
	if problem == "" {
		return true
	}
	c.failed++
	if len(c.first) < 10 {
		c.first = append(c.first, what+": "+problem)
	}
	return false
}

func (c *checker) report() {
	for _, p := range c.first {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	if c.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", c.failed, c.attempted)
	}
}
