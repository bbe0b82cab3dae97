package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBenchDeterministic: the property CI's perf-snapshot artifacts rely
// on — the same case and seed produce byte-identical JSON. The whole
// suite runs twice in-process so engine-internal state (event pooling,
// ready-queue reuse, proc reaping) from one run cannot leak into the
// next machine's virtual-time behavior.
func TestBenchDeterministic(t *testing.T) {
	for _, name := range BenchNames() {
		a, err := RunBench(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunBench(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.JSON(), b.JSON()) {
			t.Fatalf("%s diverged across identical runs:\n%s\nvs\n%s",
				name, a.JSON(), b.JSON())
		}
	}
}

// TestBenchHostStats: RunBenchHost reports the same deterministic
// snapshot plus plausible host-side engine telemetry.
func TestBenchHostStats(t *testing.T) {
	res, host, err := RunBenchHost("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.JSON(), plain.JSON()) {
		t.Fatal("RunBenchHost snapshot differs from RunBench")
	}
	if host.WallNS <= 0 {
		t.Fatalf("wall_ns=%d", host.WallNS)
	}
	if host.Events == 0 || host.ProcSwitches == 0 {
		t.Fatalf("engine telemetry empty: %+v", host)
	}
	if host.CallbacksRun > host.Events {
		t.Fatalf("callbacks run %d exceed events %d", host.CallbacksRun, host.Events)
	}
	if host.ProcsSpawned == 0 || host.ProcsReaped == 0 {
		t.Fatalf("proc reaping not observed: %+v", host)
	}
	if host.ProcsReaped > host.ProcsSpawned {
		t.Fatalf("reaped %d > spawned %d", host.ProcsReaped, host.ProcsSpawned)
	}
}

func TestBenchSnapshotShape(t *testing.T) {
	res, err := RunBench("syscall-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 256 || res.Aborted != 0 {
		t.Fatalf("calls=%d aborted=%d", res.Calls, res.Aborted)
	}
	if !(res.P50US > 0 && res.P50US <= res.P95US && res.P95US <= res.P99US) {
		t.Fatalf("percentiles disordered: %v %v %v", res.P50US, res.P95US, res.P99US)
	}
	if len(res.PhaseMeanUS) != 5 {
		t.Fatalf("phase map has %d entries", len(res.PhaseMeanUS))
	}
	if res.CPUUtilPct <= 0 || res.GPUCUUtilPct <= 0 {
		t.Fatalf("utilization missing: cpu=%v gpu=%v", res.CPUUtilPct, res.GPUCUUtilPct)
	}
	if res.EventsRejected != 0 {
		t.Fatalf("%d events rejected", res.EventsRejected)
	}
	// The JSON round-trips and keeps its name field.
	var back BenchResult
	if err := json.Unmarshal(res.JSON(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "syscall-loaded" || back.Seed != 1 {
		t.Fatalf("round-trip lost identity: %+v", back)
	}

	if _, err := RunBench("no-such-case", 1); err == nil {
		t.Fatal("unknown case accepted")
	}
}
