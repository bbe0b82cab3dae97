// Command perfbench is the repository's host-cost benchmark. It runs one
// seeded workload through the simulator's public entry points for a
// fixed time, one pass after another, each pass in a fresh process, and
// prints the medians of its end-to-end metrics (or, with --trace 1, its
// per-layer metrics), ending with one JSON line. Every pass's
// virtual-time output is checked against golden.json.
//
//	perfbench --workload fleet|wordcount-ssd --seed N --seconds S --trace 0|1
//
// README.md describes the workloads and metrics; run.sh builds and runs
// it from the repository root.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// selfLayers are the packages whose CPU-profile self time a traced run
// reports as <layer>.self_s; samples in no package of the simulator are
// host.runtime_self_s.
var selfLayers = []string{"sim", "core", "gclib", "oskern", "gpu", "mem", "fs",
	"blockdev", "netstack", "obs", "workloads", "platform", "experiments",
	"syscalls", "cpu", "fault"}

// perLayer are the metrics of a traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, c := range registryCounts {
		out = append(out, metricDef{c.metric, "count"})
	}
	for _, l := range selfLayers {
		out = append(out, metricDef{l + ".self_s", "s"})
	}
	return append(out,
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"obs.distill_s", "s"},
		metricDef{"platform.machines", "count"},
		metricDef{"host.gc_cpu_s", "s"},
		metricDef{"host.mallocs", "count"},
		metricDef{"host.runtime_self_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
}

//go:embed golden.json
var goldenJSON []byte

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "workload: fleet or wordcount-ssd")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to keep running passes")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from profiled passes")
	passMode := flag.Bool("pass", false, "run a single pass in this process and print its result as JSON")
	profiled := flag.Bool("profile", false, "with -pass: record spans and a CPU profile")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *passMode {
		res, err := runPass(w, *seed, *profiled)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := drive(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// outcome is one pass as the driver saw it.
type outcome struct {
	passResult
	peakRSSMB float64
	profiled  bool
}

// minRounds is the fewest rounds a run makes, so that every median has
// at least three samples even when one pass outlasts the time budget.
const minRounds = 3

// drive runs passes of w until the budget is spent, checks them, and
// prints the metrics. An untraced run makes rounds of one plain pass; a
// traced run makes rounds of a plain and a profiled pass, whose
// difference is the tracing overhead.
func drive(w workload, seed int64, budget time.Duration, trace bool) error {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, haveGolden := golden[w.name][strconv.FormatInt(seed, 10)]
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	var passes []outcome
	var failed, attempted int
	var refCounts map[string]int64
	kinds := []bool{false}
	if trace {
		kinds = []bool{false, true}
	}
	start := time.Now()
	for rounds := 1; ; rounds++ {
		for _, profiled := range kinds {
			o, err := runChild(exe, w.name, seed, profiled)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: pass failed: %v\n", err)
				failed++
				attempted++
				continue
			}
			// The first pass of a seed without a golden digest becomes the
			// reference for the rest; every pass must repeat its counts.
			if !haveGolden && o.Digest != "" && o.Failed == 0 {
				want, haveGolden = o.Digest, true
			}
			if o.Failed == 0 && refCounts == nil {
				refCounts = o.Counts
			}
			switch {
			case o.Failed > 0:
				for _, e := range o.Errors {
					fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
				}
			case o.Digest != want:
				fmt.Fprintf(os.Stderr, "perfbench: output digest %s, want %s\n", o.Digest, want)
				o.Failed = o.Machines
			case !maps.Equal(o.Counts, refCounts):
				fmt.Fprintln(os.Stderr, "perfbench: registry counts differ between passes of one seed")
				o.Failed = o.Machines
			}
			failed += o.Failed
			attempted += o.Machines
			if o.Failed == 0 {
				passes = append(passes, o)
			}
		}
		elapsed := time.Since(start)
		if rounds >= minRounds && elapsed+elapsed/time.Duration(rounds) > budget {
			break
		}
	}

	var plain, profiled []outcome
	for _, o := range passes {
		if o.profiled {
			profiled = append(profiled, o)
		} else {
			plain = append(plain, o)
		}
	}
	fmt.Printf("workload %s, seed %d: %d pass(es) in %.1f s, median plain pass %.3f s of wall time\n",
		w.name, seed, len(plain)+len(profiled), time.Since(start).Seconds(),
		median(plain, func(o outcome) float64 { return o.WallS }))
	fmt.Printf("%-24s %14d %-6s (failed machine runs / attempted %d)\n", "failed_ops", failed, "runs", attempted)
	ok := failed == 0 && len(plain) > 0 && (!trace || len(profiled) > 0)
	defs, metrics, notes := endToEnd, endToEndMetrics(plain), map[string]string{}
	if trace {
		defs, metrics = perLayer(), layerMetrics(plain, profiled)
		if err := writeSpans(w.name, seed, profiled); err != nil {
			return err
		}
	} else {
		for i, o := range plain {
			fmt.Printf("pass %d:", i+1)
			for _, d := range endToEnd {
				fmt.Printf(" %s %.6f", d.name, passValue[d.name](o))
			}
			fmt.Println()
		}
		for _, d := range endToEnd {
			get := passValue[d.name]
			notes[d.name] = fmt.Sprintf("q1 %.6f, q3 %.6f over %d passes",
				quantile(plain, get, 0.25), quantile(plain, get, 0.75), len(plain))
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := metrics[d.name]
		out[d.name] = value{v, d.unit}
		fmt.Printf("%-24s %14.6f %-5s %s\n", d.name, v, d.unit, notes[d.name])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, max(attempted, 1), failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one pass in a fresh process, so each pass starts from
// an empty heap and its peak resident memory is its own.
func runChild(exe, name string, seed int64, profiled bool) (outcome, error) {
	cmd := exec.Command(exe, "--pass", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--profile="+strconv.FormatBool(profiled))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return outcome{}, err
	}
	o := outcome{profiled: profiled}
	if err := json.Unmarshal(stdout.Bytes(), &o.passResult); err != nil {
		return outcome{}, fmt.Errorf("pass output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.peakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return o, nil
}

// passValue gives each end-to-end metric's value for one pass.
var passValue = map[string]func(outcome) float64{
	"cpu_s":       func(o outcome) float64 { return o.CPUS },
	"setup_s":     func(o outcome) float64 { return o.SetupS },
	"run_s":       func(o outcome) float64 { return o.CPUS - o.SetupS },
	"alloc_mb":    func(o outcome) float64 { return o.AllocMB },
	"peak_rss_mb": func(o outcome) float64 { return o.peakRSSMB },
}

func endToEndMetrics(plain []outcome) map[string]float64 {
	m := map[string]float64{}
	for name, get := range passValue {
		m[name] = median(plain, get)
	}
	return m
}

func layerMetrics(plain, profiled []outcome) map[string]float64 {
	m := map[string]float64{}
	if len(plain) == 0 || len(profiled) == 0 {
		return m
	}
	for k, v := range plain[0].Counts {
		m[k] = float64(v)
	}
	for _, l := range selfLayers {
		m[l+".self_s"] = median(profiled, func(o outcome) float64 { return o.SelfS[l] })
	}
	m["host.runtime_self_s"] = median(profiled, func(o outcome) float64 { return o.SelfS[""] })
	if ev := plain[0].Counts["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = m["sim.self_s"] / float64(ev) * 1e9
	}
	m["obs.distill_s"] = median(plain, func(o outcome) float64 { return o.DistillS })
	m["platform.machines"] = float64(plain[0].Machines)
	m["host.gc_cpu_s"] = median(plain, func(o outcome) float64 { return o.GCCPUS })
	m["host.mallocs"] = median(plain, func(o outcome) float64 { return float64(o.Mallocs) })
	cpu := func(o outcome) float64 { return o.CPUS }
	m["trace.overhead_s"] = median(profiled, cpu) - median(plain, cpu)
	return m
}

func median(outs []outcome, get func(outcome) float64) float64 {
	return quantile(outs, get, 0.5)
}

// quantile returns the q-quantile of get over outs, interpolating
// between neighbouring values (0 when outs is empty).
func quantile(outs []outcome, get func(outcome) float64, q float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = get(o)
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// writeSpans writes the profiled passes' spans as a Chrome trace: one
// process per pass, one thread per machine.
func writeSpans(name string, seed int64, profiled []outcome) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for i, o := range profiled {
		for _, s := range o.Spans {
			events = append(events, event{s.Name, "X", math.Round(s.StartS * 1e6),
				math.Round(s.DurS * 1e6), i, s.Machine + 1, map[string]int{"machine": s.Machine}})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans of %d profiled pass(es) -> %s\n", len(profiled), path)
	return nil
}
