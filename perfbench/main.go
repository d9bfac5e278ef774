// Command perfbench is goldweb's end-to-end benchmark. It measures the
// two delays a user of the paper's §6 architecture feels — how long an
// edited model takes to go live (catalog.Set) and how long a browser
// waits for a page over a real loopback socket — plus a lint pass, on
// four seeded workloads, and with -trace 1 breaks each into its layers.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload browse-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// record the environment and print every metric by name with its unit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	root      string
	commit    string
	setupOnly bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"swap-churn", "browse-warm", "browse-during-swaps", "lint-corpus"}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to read inputs from")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit (or source digest) being measured, for the record")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "set up once, print the set-up time and exit (used for the repeated set-ups)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	b, err := newBench(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if cfg.setupOnly {
		d, err := b.setup(ctx)
		if err != nil {
			return err
		}
		b.teardown()
		fmt.Printf("{\"setup_s\": %.9f}\n", d.Seconds())
		return nil
	}
	printEnv(cfg)
	out, err := b.run(ctx)
	if err != nil {
		return err
	}
	if out.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if out.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", out.firstErr)
	}
	for _, n := range out.named {
		fmt.Printf("  %-32s %14.6g %s\n", n.name, n.value, n.unit)
	}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no samples", m.name)
		}
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printEnv prints the run's environment record as one JSON line.
func printEnv(cfg config) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"conns":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     cfg.commit,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.workload == "browse-warm" {
		env["conns"], env["gomaxprocs_measured"] = browseWarmConns, browseWarmProcs
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// named is one printed metric.
type named struct {
	name  string
	value float64
	unit  string
}

// outcome is what a run hands back for printing.
type outcome struct {
	attempted, failed int64
	firstErr          error
	metrics           []named // the JSON metrics
	named             []named // the printed table
}

func (o *outcome) fail(n int64, err error) {
	o.failed += n
	if o.firstErr == nil && err != nil {
		o.firstErr = err
	}
}

func add(list *[]named, name string, value float64, unit string) {
	*list = append(*list, named{name, value, unit})
}
