// Command perfbench is the repository's benchmark: one program that runs one
// of two workloads — the paper's figure catalog, and large-P runs on the
// flat kernel — checks the outputs, and prints the measured metrics as a
// single JSON line.
//
// Usage (normally through run.py, which builds the binaries first):
//
//	perfbench -workload figures|bigp -seed N -seconds S -trace 0|1 -bindir DIR
//
// With -trace 0 the run measures the workload end to end and reports
// wall_s, cpu_s and setup_s. With -trace 1 it instead times the calls into
// each layer's public functions, the simulation daemon's under a closed
// loop of clients among them, and reports the per-layer metrics (see
// README.md for the map from each layer metric to the end-to-end metric it
// should move). A traced run does the same work and prints the same
// metrics whichever workload it names: -workload is still required, so the
// command line has one form, but only -seed picks the traced run's inputs.
// One traced run therefore covers every workload. The last line of standard
// output is always the JSON result; everything else goes before it or to
// stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	bindir  string

	attempted, failed int64
	errs              []string
	metrics           map[string]metricValue
}

// fail records a failed output check; the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.errs) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.errs = append(r.errs, msg)
}

// set records a metric under its declared unit.
func (r *run) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// endToEnd lists the metrics every untraced run reports, on every workload.
var endToEnd = []string{"wall_s", "cpu_s", "setup_s"}

// units declares every metric the benchmark can print, with its unit. It
// must agree with BENCHMARK.json; steady.py cross-checks the two.
var units = map[string]string{
	"wall_s":  "s",
	"cpu_s":   "s",
	"setup_s": "s",
}

func init() {
	for _, id := range experimentIDs {
		units["experiments."+id+"_s"] = "s"
	}
	for name, unit := range layerUnits {
		units[name] = unit
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: figures | bigp (a traced run does the same whichever is named)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 = time each layer's public calls and print the per-layer metrics")
	bindir := flag.String("bindir", "", "directory holding the built logpsimd and figures binaries")
	flag.Parse()
	runners := map[string]func(*run){"figures": runFigures, "bigp": runBigP}
	body, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bindir == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload figures|bigp, -seconds >= 1, -trace 0|1 and -bindir")
		flag.Usage()
		os.Exit(2)
	}
	// The header states what ran the numbers: the real CPU count beside
	// GOMAXPROCS, so a snapshot cannot be mistaken for a larger host.
	fmt.Printf("# perfbench go=%s goos=%s goarch=%s num_cpu=%d gomaxprocs=%d workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		*workload, *seed, *seconds, *trace)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &run{ctx: ctx, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		bindir: *bindir, metrics: map[string]metricValue{}}
	want := endToEnd
	if *trace == 1 {
		runLayers(r)
		want = perLayerNames()
	} else {
		body(r)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(1)
	}
	var missing []string
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no value measured for %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	// Keep exactly the metrics the mode promises.
	out := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, name := range want {
		out.Metrics[name] = r.metrics[name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct || out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %d output check(s) failed\n", len(r.errs))
		os.Exit(1)
	}
}

// perLayerNames lists every per-layer metric, sorted.
func perLayerNames() []string {
	var names []string
	for name := range units {
		if !slices.Contains(endToEnd, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
