package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"genesys/internal/fault"
	"genesys/internal/obs"
	"genesys/internal/platform"
	"genesys/internal/workloads"
)

// chaosFleet runs the service-fleet workload under the given fault
// profile and returns the flight recorder's bundles.
func chaosFleet(t *testing.T, profile string, seed int64) []*obs.Bundle {
	t.Helper()
	plan, err := fault.PlanFor(profile, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	cfg.Faults = &plan
	m := platform.New(cfg)
	defer m.Shutdown()
	fc := workloads.DefaultFleetConfig(800)
	fc.Seed = seed
	if _, err := workloads.RunFleet(m, fc); err != nil {
		t.Fatal(err)
	}
	return m.Obs.Flight.Bundles()
}

// bundlesSHA256 hashes the bundles' names and bytes in trigger order.
func bundlesSHA256(bs []*obs.Bundle) string {
	h := sha256.New()
	for _, b := range bs {
		h.Write([]byte(b.Name()))
		h.Write(b.JSON())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnomalyBundlesDeterministic is the acceptance gate for the flight
// recorder: a seeded chaos fleet run must trip at least one detector,
// the bundle's filtered trace must contain only the implicated +
// neighbor chains, and two identical in-process runs must produce
// byte-identical bundles. The bundles' bytes are pinned by hash, so a
// change to the recorder that alters them fails here; transient-errno
// at seed 2 trips slo-burn as well as fault-surfaced.
func TestAnomalyBundlesDeterministic(t *testing.T) {
	a := chaosFleet(t, "worker-stall", 3)
	if len(a) == 0 {
		t.Fatal("chaos fleet run tripped no detector")
	}
	b := chaosFleet(t, "worker-stall", 3)
	if len(a) != len(b) {
		t.Fatalf("bundle count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatalf("bundle %d name diverged: %s vs %s", i, a[i].Name(), b[i].Name())
		}
		if !bytes.Equal(a[i].JSON(), b[i].JSON()) {
			t.Fatalf("bundle %s not byte-identical across runs", a[i].Name())
		}
	}
	for _, bun := range a {
		allowed := map[uint64]bool{}
		for _, id := range bun.TraceIDs {
			allowed[id] = true
		}
		for _, id := range bun.Neighbors {
			allowed[id] = true
		}
		if len(allowed) == 0 {
			t.Fatalf("%s implicates no chains", bun.Name())
		}
		seen := 0
		for _, e := range bun.Trace.TraceEvents {
			if e.ID == 0 {
				continue
			}
			seen++
			if !allowed[e.ID] {
				t.Fatalf("%s trace leaks chain %d (allowed %v)",
					bun.Name(), e.ID, allowed)
			}
		}
		if seen == 0 {
			t.Fatalf("%s trace has no flow-tagged events", bun.Name())
		}
	}
	if got, want := bundlesSHA256(a), "032adc490fac324002ae5ec659f3b5cd2227df89ccfb495934caf0c6c892d7ae"; got != want {
		t.Errorf("worker-stall bundles sha256 = %s, want %s", got, want)
	}
	te := chaosFleet(t, "transient-errno", 2)
	burned := false
	for _, bun := range te {
		burned = burned || bun.Reason == "slo-burn"
	}
	if !burned {
		t.Error("transient-errno fleet run tripped no slo-burn")
	}
	if got, want := bundlesSHA256(te), "f1a54dc5d483ad383790b029878009372ac0c2f07a0c8fbfb68d8f688306ffb2"; got != want {
		t.Errorf("transient-errno bundles sha256 = %s, want %s", got, want)
	}
}

// TestFleetExperimentRuns smoke-tests the fleet experiment driver the
// CI chaos-bundle job invokes.
func TestFleetExperimentRuns(t *testing.T) {
	o := Options{Runs: 1, BaseSeed: 1}
	tbl := Fleet(o)
	if len(tbl.Rows) == 0 {
		t.Fatal("fleet experiment produced no rows")
	}
	if got := len(tbl.Header); got != 11 {
		t.Fatalf("header width %d", got)
	}
}
