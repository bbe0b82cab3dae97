package main

import (
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json lists the metrics the benchmark prints; its names must
// match the code's and fit the benchmark contract.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(cfg.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if !valid.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the code %s/%s",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer())
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
	}
}

// passes caches one pass per workload at seed 1 for the tests below.
var passes = map[string]passResult{}

func passAt1(t *testing.T, name string) passResult {
	t.Helper()
	if r, ok := passes[name]; ok {
		return r
	}
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := runPass(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Digest != golden[name]["1"] {
		t.Fatalf("%s: %d failed machine(s) %v, digest %s, golden %s",
			name, r.Failed, r.Errors, r.Digest, golden[name]["1"])
	}
	passes[name] = r
	return r
}

func TestCountsRepeat(t *testing.T) {
	first := passAt1(t, "fleet")
	w, _ := workloadByName("fleet")
	again, err := runPass(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(first.Counts, again.Counts) || first.Digest != again.Digest {
		t.Errorf("second pass differs:\ncounts %v\nthen   %v\ndigest %s then %s",
			first.Counts, again.Counts, first.Digest, again.Digest)
	}
	if len(again.SelfS) == 0 || len(again.Spans) == 0 {
		t.Errorf("profiled pass recorded %d layer times and %d spans", len(again.SelfS), len(again.Spans))
	}
}

// The reasons README.md gives for choosing the workloads, as facts.
func TestWorkloadRationale(t *testing.T) {
	for _, w := range workloads {
		c := passAt1(t, w.name).Counts
		if c["sim.events"] == 0 {
			t.Errorf("%s: no engine events", w.name)
		}
		if ssd := w.name == "wordcount-ssd"; (c["blockdev.commands"] > 0) != ssd {
			t.Errorf("%s: blockdev.commands = %d", w.name, c["blockdev.commands"])
		}
		if net := w.name == "fleet"; (c["netstack.sent"] > 0) != net {
			t.Errorf("%s: netstack.sent = %d", w.name, c["netstack.sent"])
		}
	}
}
