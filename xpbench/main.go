// Command xpbench is the repository's benchmark. It drives the public
// surface of the engine (engine.DB, engine.Iter), the range-sharded
// store (shardeddb.DB), the filesystem (vfs.FS), the device model
// (storage.Device) and the event stream (events.Listener) from outside
// the engine, in one of four closed-loop workloads, and checks every
// value it reads.
//
//	bash xpbench/run.sh --workload readscan_rt --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and then traced, for half the time
// each, prints the per-layer metrics and the tracing overhead, and
// writes the spans as Chrome trace-event JSON. The last line of
// standard output is the result object. README.md describes the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	commit       string
	corruptEvery int // self-test only: corrupt one read value in this many
}

// outDir is where traces and result records go, under the directory the
// benchmark runs in.
const outDir = ".bench_out"

// simSecondsPerSecond is how much virtual time xpoint_sim measures per
// second of --seconds: the simulator runs about five times slower than
// the time it simulates, so this keeps the wall time of a run near
// --seconds.
const simSecondsPerSecond = 0.2

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured window, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	flag.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the result record")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "xpbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// window is the measured window of one run of spec: --seconds of real
// time, or a fixed share of it in virtual time.
func (o options) window(spec *workloadSpec) time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if spec.sim {
		d = time.Duration(float64(d) * simSecondsPerSecond)
	}
	return d
}

func run(o options) error {
	spec, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if spec.sim {
		// The kernel runs one virtual instant's processes at a time; on
		// one processor their hand-offs stay on one scheduler queue,
		// which makes the simulator faster and steadier in wall time.
		runtime.GOMAXPROCS(1)
	}
	env := environment(o, spec)
	fmt.Printf("env: %s\n", formatEnv(env))

	var (
		metrics   []metric
		attempted int64
		failed    int64
		extra     []metric
	)
	if o.trace == 0 {
		rs, err := runRounds(spec, o, o.window(spec)/rounds)
		if err != nil {
			return err
		}
		for i, r := range rs {
			fmt.Printf("round %d: set-up times %v s\n", i+1, r.setupTimes)
			printLatencies(os.Stdout, r)
			attempted += r.attempted
			failed += r.failed
		}
		metrics, extra = combine(rs, endToEnd), combine(rs, ungated)
	} else {
		half := o.window(spec) / 2
		plain, err := runWorkload(spec, o, false, half)
		if err != nil {
			return err
		}
		traced, err := runWorkload(spec, o, true, half)
		if err != nil {
			return err
		}
		printLatencies(os.Stdout, traced)
		printSelfTimes(os.Stdout, selfTimes(traced.spans))
		file := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", spec.name, o.seed))
		if err := writeChrome(file, traced.spans, env); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d spans (%d over the cap, not kept) written to %s\n", len(traced.spans), traced.spansDropped, file)
		metrics, extra = splitLayer(perLayer(traced, plain))
		attempted, failed = plain.attempted+traced.attempted, plain.failed+traced.failed
		extra = append(extra,
			metric{"throughput_ops_s.untraced", plain.throughput(), "ops/s"},
			metric{"throughput_ops_s.traced", traced.throughput(), "ops/s"})
	}
	// The error rate is zero on a correct run, so it is not a gated
	// metric; the result object carries it as failed over attempted.
	extra = append(extra, metric{"error_rate", div(float64(failed), float64(attempted)), "ratio"})
	for _, m := range append(metrics, extra...) {
		fmt.Printf("metric %-36s %18.6f %s\n", m.name, m.value, m.unit)
	}
	if err := appendRecord(env, metrics, extra); err != nil {
		return err
	}
	return printResult(metrics, attempted, failed)
}

// environment is the record of what was measured and where.
func environment(o options, spec *workloadSpec) map[string]string {
	dev, clk := "null", "real"
	if spec.sim {
		dev, clk = "3dxpoint", "virtual"
	}
	return map[string]string{
		"workload":   spec.name,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"trace":      fmt.Sprint(o.trace),
		"commit":     o.commit,
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"fs":         "memfs (in-process, device model " + dev + ")",
		"clock":      clk,
		"window":     o.window(spec).String(),
	}
}

func formatEnv(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + env[k]
	}
	return strings.Join(parts, " ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricMap(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}

// appendRecord appends one line to results.jsonl in the output
// directory: {environment, metrics}.
func appendRecord(env map[string]string, metrics, extra []metric) error {
	line, err := json.Marshal(struct {
		Env     map[string]string     `json:"env"`
		Metrics map[string]jsonMetric `json:"metrics"`
		Extra   map[string]jsonMetric `json:"extra"`
	}{env, metricMap(metrics), metricMap(extra)})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the result object as the last line of output.
func printResult(metrics []metric, attempted, failed int64) error {
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0, attempted, failed, metricMap(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
