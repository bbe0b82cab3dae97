package platform_test

import (
	"strings"
	"testing"

	"genesys/internal/core"
	"genesys/internal/gpu"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// TestFlightWiringAndSysfs: every machine carries an always-on flight
// recorder — fed by the event log's tee even with tracing disabled —
// whose state is exported as gauges and at /sys/genesys/flight, next
// to the /sys/genesys/top dashboard.
func TestFlightWiringAndSysfs(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	runBlockingWorkload(t, m, core.WaitPoll)

	// Tracing was never enabled, yet the recorder saw the causal chains.
	if m.Obs.Events.Len() != 0 {
		t.Fatalf("event ring enabled unexpectedly: %d events", m.Obs.Events.Len())
	}
	if m.Obs.Flight.Chains() == 0 {
		t.Fatal("flight recorder saw no chains from the tee")
	}
	snap := m.Obs.Metrics.Snapshot()
	for _, name := range []string{"obs.flight_anomalies", "obs.flight_bundles",
		"obs.flight_chains", "obs.flight_suppressed"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("gauge %q not registered", name)
		}
	}
	if snap["obs.flight_chains"] == 0 {
		t.Fatal("obs.flight_chains gauge is zero")
	}
	data, err := m.ReadFile("/sys/genesys/flight")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "flight recorder") {
		t.Fatalf("flight view:\n%s", data)
	}
	top, err := m.ReadFile("/sys/genesys/top")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"genesys top", "util ", "engine ",
		"kernel ", "slots ", "calls ", "flight "} {
		if !strings.Contains(string(top), want) {
			t.Fatalf("top view lacks %q:\n%s", want, top)
		}
	}
}

// TestLatencyOutlierEndToEnd: after enough short nanosleeps to arm the
// detector, one long nanosleep trips latency-outlier through the real
// syscall path, and the bundle's critpath snapshot already counts it.
func TestLatencyOutlierEndToEnd(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	t.Cleanup(m.Shutdown)
	m.NewProcess("sleeper")
	const short = 130
	m.E.Spawn("host", func(p *sim.Proc) {
		k := m.GPU.Launch(p, gpu.Kernel{
			Name: "sleeper", WorkGroups: 1, WGSize: 64,
			Fn: func(w *gpu.Wavefront) {
				for i := 0; i <= short; i++ {
					d := sim.Microsecond
					if i == short {
						d = 10 * sim.Millisecond
					}
					m.Genesys.InvokeWG(w, syscalls.Request{
						NR:   syscalls.SYS_nanosleep,
						Args: [6]uint64{uint64(d)},
					}, core.Options{Blocking: true, Wait: core.WaitHaltResume})
				}
			},
		})
		k.Wait(p)
		m.Genesys.Drain(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	bs := m.Obs.Flight.Bundles()
	if len(bs) != 1 || bs[0].Reason != "latency-outlier" {
		t.Fatalf("want one latency-outlier bundle, got %d (anomalies %d)",
			len(bs), m.Obs.Flight.Anomalies())
	}
	b := bs[0]
	if !strings.HasPrefix(b.Detail, "nanosleep trace=") || !strings.HasSuffix(b.Detail, "(n=130)") {
		t.Fatalf("detail: %s", b.Detail)
	}
	if !strings.Contains(b.Snapshots["critpath"], "over 131 traced call(s)") {
		t.Fatalf("critpath snapshot misses the outlier:\n%s", b.Snapshots["critpath"])
	}
}

// TestEventCapConfig: Config.EventCap resizes the event ring; 0 keeps
// the default.
func TestEventCapConfig(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.EventCap = 128
	m := platform.New(cfg)
	t.Cleanup(m.Shutdown)
	if got := m.Obs.Events.Capacity(); got != 128 {
		t.Fatalf("capacity = %d, want 128", got)
	}
	m2 := platform.New(platform.DefaultConfig())
	t.Cleanup(m2.Shutdown)
	if got := m2.Obs.Events.Capacity(); got != obs.DefaultEventCap {
		t.Fatalf("default capacity = %d, want %d", got, obs.DefaultEventCap)
	}
}
