package main

// The checkpoint/restore and record/replay subcommands (DESIGN.md §10):
// thin CLI shims over internal/experiments' bench-recipe harness and
// internal/replay's sweep driver.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"genesys/internal/ckpt"
	"genesys/internal/experiments"
	"genesys/internal/replay"
	"genesys/internal/sim"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func jsonIndent(v interface{}) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func ckptCmd(args []string) {
	fs := flag.NewFlagSet("ckpt", flag.ExitOnError)
	caseName := fs.String("case", "", "bench case to checkpoint")
	seed := fs.Int64("seed", 1, "machine seed")
	at := fs.Duration("at", 0, "virtual instant of the cut")
	out := fs.String("out", "", "snapshot file to write")
	_ = fs.Parse(args)
	if *caseName == "" || *out == "" || *at <= 0 {
		fatalf("ckpt: -case, -at and -out are required")
	}
	if err := experiments.CheckpointBench(*caseName, *seed, sim.Time(at.Nanoseconds()), *out); err != nil {
		fatalf("ckpt: %v", err)
	}
	fmt.Printf("checkpointed %s (seed %d) at t=%v -> %s\n", *caseName, *seed, *at, *out)
}

func restoreCmd(args []string) {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	outDir := fs.String("out", ".", "directory the BENCH_<case>.json is written to")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("restore: exactly one snapshot file expected")
	}
	path := fs.Arg(0)
	s, err := ckpt.Load(path)
	if err != nil {
		fatalf("restore: %v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("restore: %v", err)
	}
	fmt.Printf("restoring %s: case %q seed %d, cut at t=%v\n",
		path, s.Meta.Case, s.Meta.Seed, time.Duration(s.CutAt))
	res, _, artifacts, err := experiments.ResumeBench(path)
	if err != nil {
		fatalf("restore: %v", err)
	}
	bpath := filepath.Join(*outDir, "BENCH_"+res.Name+".json")
	if err := os.WriteFile(bpath, res.JSON(), 0o644); err != nil {
		fatalf("restore: %v", err)
	}
	fmt.Printf("%-16s %6d calls  p50 %8.2fus  p99 %8.2fus  -> %s\n",
		res.Name, res.Calls, res.P50US, res.P99US, bpath)
	for aname, data := range artifacts {
		apath := filepath.Join(*outDir, aname)
		if err := os.WriteFile(apath, data, 0o644); err != nil {
			fatalf("restore: %v", err)
		}
		fmt.Printf("%-16s artifact -> %s\n", res.Name, apath)
	}
}

func recordCmd(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	caseName := fs.String("case", "", "bench case to record")
	seed := fs.Int64("seed", 1, "machine seed")
	out := fs.String("out", "", "trace file to write")
	_ = fs.Parse(args)
	if *caseName == "" || *out == "" {
		fatalf("record: -case and -out are required")
	}
	res, tr, err := experiments.RecordBench(*caseName, *seed)
	if err != nil {
		fatalf("record: %v", err)
	}
	if err := tr.Write(*out); err != nil {
		fatalf("record: %v", err)
	}
	fmt.Printf("recorded %s (seed %d): %d syscalls, %d env fds -> %s\n",
		*caseName, *seed, len(tr.Entries), len(tr.Env), *out)
	for _, c := range tr.PerNR() {
		fmt.Printf("  %-16s %6d\n", c.Name, c.Recorded)
	}
	_ = res
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parseDurList(s string) ([]sim.Time, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.Time
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, sim.Time(d.Nanoseconds()))
	}
	return out, nil
}

func replayCmd(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	workersList := fs.String("workers", "", "comma-separated worker counts to sweep (default: config default)")
	coalesceList := fs.String("coalesce", "", "comma-separated coalescing windows to sweep (e.g. 10us,30us)")
	coalesceMax := fs.Int("coalesce-max", 0, "coalescing batch-size cap when sweeping windows")
	asJSON := fs.Bool("json", false, "emit the sweep reports as JSON")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("replay: exactly one trace file expected")
	}
	tr, err := replay.Load(fs.Arg(0))
	if err != nil {
		fatalf("replay: %v", err)
	}
	workers, err := parseIntList(*workersList)
	if err != nil {
		fatalf("replay: -workers: %v", err)
	}
	windows, err := parseDurList(*coalesceList)
	if err != nil {
		fatalf("replay: -coalesce: %v", err)
	}
	table, reps, err := experiments.ReplaySweep(tr, workers, windows, *coalesceMax)
	if err != nil {
		fatalf("replay: %v", err)
	}
	if *asJSON {
		for _, rep := range reps {
			b, err := jsonIndent(rep)
			if err != nil {
				fatalf("replay: %v", err)
			}
			os.Stdout.Write(b)
		}
		return
	}
	if len(reps) == 1 {
		fmt.Print(reps[0].Render())
	} else {
		fmt.Println(table.Render())
	}
	for _, rep := range reps {
		if !rep.Matches {
			fatalf("replay: configuration workers=%d diverged from the recording", rep.Workers)
		}
	}
}
