// Command perfbench is the repository's benchmark for ordod and the Ordo
// engines. One invocation runs one workload for a fixed measured window
// and prints, as its last line, one JSON object with the run's
// correctness, its attempted and failed operations, and its metrics:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1 (a separate run with ordod's admin endpoint and span sampling
// on, plus timed calls into each layer's public functions).
//
//	go run . -ordod <path> -workload kv-read-mostly -seed 1 -seconds 10 -trace 0
//
// run.sh builds ordod and this command from source and forwards its
// arguments; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// processStart anchors setup_s: the cold set-up is timed from the start of
// this process.
var processStart = time.Now()

// warmup is the fixed load period before the measured window; its
// completions are discarded.
const warmup = 2 * time.Second

// env is what every workload runs with.
type env struct {
	ordod   string // ordod binary
	dir     string // scratch directory for WALs and logs, removed at exit
	seed    int64
	seconds int
	trace   bool
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result.
type outcome struct {
	attempted  uint64
	failed     uint64
	violations []string
	metrics    map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// violate records a failed correctness check; the run then reports
// correct=false.
func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"kv-read-mostly": runReadMostly,
	"kv-txn":         runTxn,
	"kv-replicated":  runReplicated,
	"engine-ycsb":    runYCSB,
}

func main() {
	var (
		e    env
		name string
	)
	flag.StringVar(&e.ordod, "ordod", "", "path to the ordod binary (required for the kv-* workloads)")
	flag.StringVar(&name, "workload", "", "workload: kv-read-mostly, kv-txn, kv-replicated or engine-ycsb")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.IntVar(&e.seconds, "seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	e.trace = *trace == 1
	os.Exit(run(&e, name))
}

func run(e *env, name string) int {
	fn, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", name, names)
		return 2
	}
	if e.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.dir = dir
	cleanup := func() {
		stopAll()
		_ = os.RemoveAll(dir)
	}
	defer cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", sig)
		cleanup()
		os.Exit(1)
	}()

	out, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, v := range out.violations {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", name, v)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.violations) == 0, out.attempted, out.failed, out.metrics}
	if res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", name)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
