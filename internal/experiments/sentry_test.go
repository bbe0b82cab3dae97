package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifacts(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

var sentryBaseline = map[string]string{
	"BENCH_fleet.json": `{"name":"fleet","p50_us":26.6,"p99_us":285.1,"calls":57806}`,
	"SLO_fleet.json":   `{"classes":{"udp":{"p99_ns":285090,"min_ns":87600}}}`,
	"BENCH_host.json":  `{"cases":[{"name":"fleet","wall_ms":100.0},{"name":"idle","wall_ms":1.0}]}`,
}

func TestSentryPassesOnIdenticalArtifacts(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	writeArtifacts(t, fresh, sentryBaseline)
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("identical dirs failed:\n%s", rep.Render())
	}
	if rep.Checked != 3 {
		t.Fatalf("checked %d files", rep.Checked)
	}
	// Host rows are informational (present, ok).
	if !strings.Contains(rep.Render(), "fleet.wall_ms") {
		t.Fatalf("render lacks host rows:\n%s", rep.Render())
	}
}

func TestSentryFailsOnMetricRegression(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	regressed := map[string]string{}
	for k, v := range sentryBaseline {
		regressed[k] = v
	}
	regressed["BENCH_fleet.json"] = `{"name":"fleet","p50_us":26.6,"p99_us":399.9,"calls":57806}`
	writeArtifacts(t, fresh, regressed)
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("regression not flagged:\n%s", rep.Render())
	}
	out := rep.Render()
	// The delta table names the exact metric with a numeric delta.
	if !strings.Contains(out, "p99_us") || !strings.Contains(out, "285.1") ||
		!strings.Contains(out, "399.9") || !strings.Contains(out, "FAIL") {
		t.Fatalf("delta table unreadable:\n%s", out)
	}
	// Untouched metrics of the same file produce no rows.
	if strings.Contains(out, "p50_us") {
		t.Fatalf("unchanged metric reported:\n%s", out)
	}
}

func TestSentryWallClockThreshold(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	over := map[string]string{}
	for k, v := range sentryBaseline {
		over[k] = v
	}
	// fleet 100ms → 250ms: fails at 2x, passes at 10x. Getting faster
	// (idle 1.0 → wall within limit) never fails.
	over["BENCH_host.json"] = `{"cases":[{"name":"fleet","wall_ms":250.0},{"name":"idle","wall_ms":0.5}]}`
	writeArtifacts(t, fresh, over)
	rep, err := RunSentry(base, fresh, SentryOptions{WallFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("2x threshold missed a 2.5x inflation:\n%s", rep.Render())
	}
	rep, err = RunSentry(base, fresh, SentryOptions{WallFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("10x threshold failed a 2.5x inflation:\n%s", rep.Render())
	}
}

func TestSentryMissingAndExtraFiles(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	// Fresh set drops SLO_fleet.json and adds an ungated new case.
	writeArtifacts(t, fresh, map[string]string{
		"BENCH_fleet.json": sentryBaseline["BENCH_fleet.json"],
		"BENCH_host.json":  sentryBaseline["BENCH_host.json"],
		"BENCH_new.json":   `{"p50_us":1}`,
	})
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("missing/extra files not flagged:\n%s", rep.Render())
	}
	out := rep.Render()
	if !strings.Contains(out, "SLO_fleet.json") || !strings.Contains(out, "missing") {
		t.Fatalf("missing baseline artifact not reported:\n%s", out)
	}
	if !strings.Contains(out, "BENCH_new.json") || !strings.Contains(out, "commit a baseline") {
		t.Fatalf("ungated new artifact not reported:\n%s", out)
	}
}

// TestSentryHostSchemaTolerant pins the additive-schema contract for
// BENCH_host.json: a baseline written before the parallel driver (cases
// with only name + wall_ms, no host_cores/parallel_schedule/
// events_per_host_second_per_core or engine counters) must still
// threshold cleanly against a fresh report carrying every new field —
// and the wall-clock threshold and the exact engine-counter gate must
// still bite through the new schema.
func TestSentryHostSchemaTolerant(t *testing.T) {
	freshHost := `{
  "go_version": "go1.22",
  "goos": "linux",
  "goarch": "amd64",
  "host_cores": 8,
  "parallel": 8,
  "parallel_workers": 2,
  "suite_wall_ms": 120.5,
  "events_per_host_second_per_core": 1500000,
  "parallel_schedule": [
    {"case": "fleet", "seed": 1, "worker": 0, "wall_ms": 110.0},
    {"case": "idle", "seed": 1, "worker": 1, "wall_ms": 1.1}
  ],
  "cases": [
    {"name": "fleet", "seed": 1, "wall_ms": 110.0, "sim_events_total": 4230717, "sim_timers_canceled": 9000, "parallel_worker": 0},
    {"name": "idle", "seed": 1, "wall_ms": 1.1, "sim_events_total": 2048, "parallel_worker": 1}
  ]
}`
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	ok := map[string]string{}
	for k, v := range sentryBaseline {
		ok[k] = v
	}
	ok["BENCH_host.json"] = freshHost
	writeArtifacts(t, fresh, ok)
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("new host fields hard-failed an old baseline:\n%s", rep.Render())
	}
	// Same schema, inflated wall: the threshold semantics are unchanged.
	bad := map[string]string{}
	for k, v := range ok {
		bad[k] = v
	}
	bad["BENCH_host.json"] = strings.Replace(freshHost, `"name": "fleet", "seed": 1, "wall_ms": 110.0`,
		`"name": "fleet", "seed": 1, "wall_ms": 2000.0`, 1)
	writeArtifacts(t, fresh, bad)
	rep, err = RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("wall threshold lost through the new schema:\n%s", rep.Render())
	}

	// Engine counters are exact: with both files carrying them, one
	// event of drift fails and names the counter.
	writeArtifacts(t, base, ok)
	drift := map[string]string{}
	for k, v := range ok {
		drift[k] = v
	}
	drift["BENCH_host.json"] = strings.Replace(freshHost, `"sim_events_total": 4230717`,
		`"sim_events_total": 4230718`, 1)
	writeArtifacts(t, fresh, drift)
	rep, err = RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Render(), "fleet.sim_events_total") {
		t.Fatalf("perturbed engine counter not flagged:\n%s", rep.Render())
	}
	// A baseline without a counter does not gate it.
	noField := map[string]string{}
	for k, v := range ok {
		noField[k] = v
	}
	noField["BENCH_host.json"] = strings.Replace(freshHost, `"sim_events_total": 4230717, `, "", 1)
	writeArtifacts(t, base, noField)
	rep, err = RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("counter missing from the baseline was gated:\n%s", rep.Render())
	}
}

// TestSentryGatesAnomalyBundles: a fresh ANOMALY bundle with no
// committed counterpart fails (a detector fired where the baseline was
// quiet), and a bundle that drifts from its committed bytes fails like
// any other virtual-time artifact.
func TestSentryGatesAnomalyBundles(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	withBundle := map[string]string{}
	for k, v := range sentryBaseline {
		withBundle[k] = v
	}
	withBundle["ANOMALY_fleet_001_slo-burn.json"] = `{"reason":"slo-burn","at_ns":412000}`
	writeArtifacts(t, fresh, withBundle)
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Render(), "ANOMALY_fleet_001_slo-burn.json") {
		t.Fatalf("ungated fresh anomaly bundle not flagged:\n%s", rep.Render())
	}
	// Committed bundle + identical fresh bundle: clean.
	writeArtifacts(t, base, withBundle)
	rep, err = RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("identical bundles failed:\n%s", rep.Render())
	}
	// Drifted bundle bytes: a determinism failure.
	drift := map[string]string{}
	for k, v := range withBundle {
		drift[k] = v
	}
	drift["ANOMALY_fleet_001_slo-burn.json"] = `{"reason":"slo-burn","at_ns":999000}`
	writeArtifacts(t, fresh, drift)
	rep, err = RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Render(), "at_ns") {
		t.Fatalf("drifted bundle not flagged per-metric:\n%s", rep.Render())
	}
}

func TestSentryEmptyBaselineDirErrors(t *testing.T) {
	if _, err := RunSentry(t.TempDir(), t.TempDir(), SentryOptions{}); err == nil {
		t.Fatal("empty baseline dir accepted")
	}
}

// TestSentryAgainstCommittedBaselines regenerates the cheapest bench
// case and checks it against the repo's committed baselines/ — the
// same comparison CI's sentry job runs, scoped to one case so the test
// stays fast.
func TestSentryAgainstCommittedBaselines(t *testing.T) {
	res, err := RunBench("syscall-idle", 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, "BENCH_syscall-idle.json"), res.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	committed, err := os.ReadFile("../../baselines/BENCH_syscall-idle.json")
	if err != nil {
		t.Skipf("no committed baselines: %v", err)
	}
	writeArtifacts(t, base, map[string]string{"BENCH_syscall-idle.json": string(committed)})
	rep, err := RunSentry(base, fresh, SentryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("fresh syscall-idle drifted from committed baseline:\n%s", rep.Render())
	}
}
