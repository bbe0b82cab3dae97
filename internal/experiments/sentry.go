package experiments

// The CI perf-regression sentry: diff a freshly generated bench-artifact
// directory against the committed baselines/ directory. Virtual-time
// artifacts (BENCH_<case>.json, SLO_<case>.json) are deterministic for a
// fixed seed, so the comparison is exact — any drift is a regression (or
// an intentional change that must update the baseline in the same PR).
// BENCH_host.json wall-clock is only thresholded: a case fails when its
// wall time exceeds WallFactor × the committed baseline, loose enough for
// CI-runner noise, tight enough to catch a hot path falling off a cliff.
// Its per-case engine counters are deterministic and compared exactly.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SentryOptions tunes the comparison.
type SentryOptions struct {
	// WallFactor is the allowed BENCH_host.json wall-clock inflation
	// (default 10×; upper bound only — getting faster never fails).
	WallFactor float64
}

// SentryRow is one per-metric delta in the report.
type SentryRow struct {
	File     string
	Metric   string
	Baseline string
	Fresh    string
	Delta    string
	Fail     bool
}

// SentryReport is the outcome of one sentry comparison.
type SentryReport struct {
	Checked int // files compared
	Rows    []SentryRow
}

// Failed reports whether any row is a failure.
func (r *SentryReport) Failed() bool {
	for _, row := range r.Rows {
		if row.Fail {
			return true
		}
	}
	return false
}

// Render produces the readable per-metric delta table.
func (r *SentryReport) Render() string {
	var b strings.Builder
	fails := 0
	for _, row := range r.Rows {
		if row.Fail {
			fails++
		}
	}
	fmt.Fprintf(&b, "regression sentry: %d file(s) checked, %d delta(s), %d failure(s)\n",
		r.Checked, len(r.Rows), fails)
	if len(r.Rows) == 0 {
		b.WriteString("  all virtual-time metrics byte-identical to baselines\n")
		return b.String()
	}
	t := &Table{ID: "sentry", Title: "baseline deltas",
		Header: []string{"file", "metric", "baseline", "fresh", "delta", "verdict"}}
	for _, row := range r.Rows {
		verdict := "ok"
		if row.Fail {
			verdict = "FAIL"
		}
		t.AddRow(row.File, row.Metric, row.Baseline, row.Fresh, row.Delta, verdict)
	}
	b.WriteString(t.Render())
	return b.String()
}

// RunSentry compares freshDir's bench artifacts against baselineDir's.
// Every BENCH_*.json / SLO_*.json in the baseline set must exist fresh
// and match exactly (except BENCH_host.json; see diffHost); fresh
// virtual-time artifacts missing a committed baseline also fail, so new
// bench cases can't land ungated.
func RunSentry(baselineDir, freshDir string, opt SentryOptions) (*SentryReport, error) {
	if opt.WallFactor <= 0 {
		opt.WallFactor = 10
	}
	rep := &SentryReport{}
	base, err := artifactSet(baselineDir)
	if err != nil {
		return nil, fmt.Errorf("sentry: baseline dir: %w", err)
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("sentry: no BENCH_*/SLO_* baselines in %s", baselineDir)
	}
	fresh, err := artifactSet(freshDir)
	if err != nil {
		return nil, fmt.Errorf("sentry: fresh dir: %w", err)
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		fpath, ok := fresh[name]
		if !ok {
			rep.Rows = append(rep.Rows, SentryRow{File: name, Metric: "(file)",
				Baseline: "present", Fresh: "missing", Delta: "-", Fail: true})
			continue
		}
		rep.Checked++
		if name == "BENCH_host.json" {
			rows, err := diffHost(base[name], fpath, opt.WallFactor)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, rows...)
			continue
		}
		rows, err := diffExact(name, base[name], fpath)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	freshNames := make([]string, 0, len(fresh))
	for n := range fresh {
		freshNames = append(freshNames, n)
	}
	sort.Strings(freshNames)
	for _, name := range freshNames {
		if _, ok := base[name]; !ok {
			rep.Rows = append(rep.Rows, SentryRow{File: name, Metric: "(file)",
				Baseline: "missing", Fresh: "present", Delta: "commit a baseline", Fail: true})
		}
	}
	return rep, nil
}

// artifactSet maps artifact basename → path for the virtual-time
// artifacts of one directory: BENCH_*/SLO_* plus any ANOMALY_* bundles.
// Clean bench runs emit no bundles, so a fresh ANOMALY file without a
// committed baseline is itself a finding — a detector fired where the
// baseline run was quiet.
func artifactSet(dir string) (map[string]string, error) {
	out := make(map[string]string)
	for _, pat := range []string{"BENCH_*.json", "SLO_*.json", "ANOMALY_*.json"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			out[filepath.Base(m)] = m
		}
	}
	return out, nil
}

// diffExact compares two deterministic JSON artifacts: byte equality
// passes; otherwise every differing flattened metric becomes a failure
// row (so the CI log names exactly what moved, not just "files differ").
func diffExact(name, basePath, freshPath string) ([]SentryRow, error) {
	bb, err := os.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	fb, err := os.ReadFile(freshPath)
	if err != nil {
		return nil, err
	}
	if string(bb) == string(fb) {
		return nil, nil
	}
	bv, err := flattenJSON(bb)
	if err != nil {
		return nil, fmt.Errorf("sentry: %s baseline: %w", name, err)
	}
	fv, err := flattenJSON(fb)
	if err != nil {
		return nil, fmt.Errorf("sentry: %s fresh: %w", name, err)
	}
	var rows []SentryRow
	keys := make([]string, 0, len(bv))
	for k := range bv {
		keys = append(keys, k)
	}
	for k := range fv {
		if _, ok := bv[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, inB := bv[k]
		f, inF := fv[k]
		if inB && inF && b == f {
			continue
		}
		row := SentryRow{File: name, Metric: k, Baseline: "-", Fresh: "-", Delta: "-", Fail: true}
		if inB {
			row.Baseline = b
		}
		if inF {
			row.Fresh = f
		}
		if bn, errB := parseNum(b); inB && inF && errB == nil {
			if fn, errF := parseNum(f); errF == nil {
				row.Delta = fmtDelta(bn, fn)
			}
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		// Bytes differ but flattened values match (formatting drift) —
		// still a determinism failure for an exact artifact.
		rows = append(rows, SentryRow{File: name, Metric: "(formatting)",
			Baseline: fmt.Sprintf("%d bytes", len(bb)),
			Fresh:    fmt.Sprintf("%d bytes", len(fb)),
			Delta:    "byte-level drift", Fail: true})
	}
	return rows, nil
}

// hostExact are the BENCH_host.json per-case engine counters. Unlike
// wall time they do not depend on the host, so they must match exactly.
// A field is compared only when both files carry it.
var hostExact = []string{
	"sim_events_total", "sim_callbacks_run",
	"sim_proc_switches_total", "sim_procs_reaped", "sim_timers_canceled",
}

// hostDoc is the slice of BENCH_host.json the sentry checks: each case's
// fields by JSON name.
type hostDoc struct {
	Cases []map[string]any `json:"cases"`
}

// diffHost compares per-case engine counters exactly and thresholds
// per-case wall-clock: fresh must stay under factor × baseline.
// Informational wall rows are emitted for every case so the CI log
// shows the wall-clock trend even when nothing fails.
func diffHost(basePath, freshPath string, factor float64) ([]SentryRow, error) {
	var base, fresh hostDoc
	bb, err := os.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(bb, &base); err != nil {
		return nil, fmt.Errorf("sentry: BENCH_host.json baseline: %w", err)
	}
	fb, err := os.ReadFile(freshPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(fb, &fresh); err != nil {
		return nil, fmt.Errorf("sentry: BENCH_host.json fresh: %w", err)
	}
	baseBy := make(map[string]map[string]any, len(base.Cases))
	for _, c := range base.Cases {
		name, _ := c["name"].(string)
		baseBy[name] = c
	}
	var rows []SentryRow
	for _, c := range fresh.Cases {
		name, _ := c["name"].(string)
		bc, ok := baseBy[name]
		if !ok {
			continue
		}
		for _, k := range hostExact {
			b, inB := bc[k].(float64)
			f, inF := c[k].(float64)
			if inB && inF && b != f {
				rows = append(rows, SentryRow{
					File:     "BENCH_host.json",
					Metric:   name + "." + k,
					Baseline: formatNum(b),
					Fresh:    formatNum(f),
					Delta:    fmtDelta(b, f),
					Fail:     true,
				})
			}
		}
		b, _ := bc["wall_ms"].(float64)
		if b <= 0 {
			continue
		}
		f, _ := c["wall_ms"].(float64)
		rows = append(rows, SentryRow{
			File:     "BENCH_host.json",
			Metric:   name + ".wall_ms",
			Baseline: fmt.Sprintf("%.2f", b),
			Fresh:    fmt.Sprintf("%.2f", f),
			Delta:    fmt.Sprintf("%.2fx (limit %.0fx)", f/b, factor),
			Fail:     f > factor*b,
		})
	}
	return rows, nil
}

// flattenJSON renders a JSON document as dotted-path → formatted-value
// pairs ("classes.udp.p99_ns" → "285090", "cases[2].calls" → "64").
func flattenJSON(data []byte) (map[string]string, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, x[k])
			}
		case []any:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", prefix, i), e)
			}
		case float64:
			out[prefix] = formatNum(x)
		case nil:
			out[prefix] = "null"
		default:
			out[prefix] = fmt.Sprintf("%v", x)
		}
	}
	walk("", v)
	return out, nil
}

func formatNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

func parseNum(s string) (float64, error) {
	var x float64
	_, err := fmt.Sscanf(s, "%g", &x)
	return x, err
}

func fmtDelta(b, f float64) string {
	d := f - b
	if b != 0 {
		return fmt.Sprintf("%+g (%+.2f%%)", d, 100*d/b)
	}
	return fmt.Sprintf("%+g", d)
}
