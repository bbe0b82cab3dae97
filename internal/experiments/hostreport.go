package experiments

// BENCH_host.json: the host-side (wall-clock) companion to the
// deterministic BENCH_<case>.json snapshots. Everything here depends on
// the machine and scheduling luck of the run — wall times, throughput
// rates, which driver worker a case landed on — so the file is excluded
// from the byte-identity gates and only wall-clock-thresholded by the
// sentry. Additions to this schema must stay additive: the sentry reads
// only the fields it thresholds, so old baselines keep working.

import (
	"encoding/json"
	"runtime"
	"time"
)

// HostCase is one row of BENCH_host.json: wall-clock throughput of one
// (case, seed) unit on this machine.
type HostCase struct {
	Name               string  `json:"name"`
	Seed               int64   `json:"seed"`
	Calls              int     `json:"calls"`
	WallMS             float64 `json:"wall_ms"`
	SyscallsPerHostSec float64 `json:"syscalls_per_host_sec"`
	SimEventsTotal     uint64  `json:"sim_events_total"`
	EventsPerHostSec   float64 `json:"events_per_host_sec"`
	SimProcSwitches    uint64  `json:"sim_proc_switches_total"`
	SimCallbacksRun    uint64  `json:"sim_callbacks_run"`
	SimProcsReaped     uint64  `json:"sim_procs_reaped"`
	SimTimersCanceled  uint64  `json:"sim_timers_canceled"`
	// ParallelWorker is the driver worker that simulated this unit
	// (0 in a sequential run).
	ParallelWorker int `json:"parallel_worker"`
}

// ScheduleSlot is one entry of the parallel schedule: which worker ran
// which (case, seed) unit and how long it held it. Ordered by work-unit
// order, not completion order.
type ScheduleSlot struct {
	Case   string  `json:"case"`
	Seed   int64   `json:"seed"`
	Worker int     `json:"worker"`
	WallMS float64 `json:"wall_ms"`
}

// HostReport is the BENCH_host.json document.
type HostReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	HostCores int    `json:"host_cores"`

	// Parallel is the requested driver parallelism; Workers is how many
	// workers actually ran (min(parallel, units)).
	Parallel int `json:"parallel"`
	Workers  int `json:"parallel_workers"`

	// SuiteWallMS is the end-to-end wall clock of the whole suite
	// invocation. With one worker it is ~the sum of the per-case walls;
	// with N it approaches the longest case's wall (the suite's
	// speedup ceiling — sum/max of the case walls).
	SuiteWallMS float64 `json:"suite_wall_ms"`

	// EventsPerHostSecPerCore is the suite's aggregate simulated-event
	// throughput normalized by the workers used — the host-efficiency
	// figure the ROADMAP's sharded-engine item asks for: it should hold
	// roughly flat as -parallel grows on a big enough host.
	EventsPerHostSecPerCore float64 `json:"events_per_host_second_per_core"`

	Schedule []ScheduleSlot `json:"parallel_schedule"`
	Cases    []HostCase     `json:"cases"`
}

// perHostSec rates n over a wall-clock duration.
func perHostSec(n uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(n) / wall.Seconds()
}

// HostReport distills the suite's host-side telemetry into the
// BENCH_host.json document.
func (s *SuiteResult) HostReport() HostReport {
	rep := HostReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		HostCores: runtime.NumCPU(),
		Parallel:  s.Parallel,
		Workers:   s.Workers,
	}
	suiteWall := time.Duration(s.WallNS)
	rep.SuiteWallMS = float64(s.WallNS) / 1e6
	var events uint64
	for _, c := range s.Cases {
		wall := time.Duration(c.Host.WallNS)
		events += c.Host.Events
		rep.Schedule = append(rep.Schedule, ScheduleSlot{
			Case: c.Name, Seed: c.Seed, Worker: c.Worker,
			WallMS: float64(c.Host.WallNS) / 1e6,
		})
		rep.Cases = append(rep.Cases, HostCase{
			Name:               c.Name,
			Seed:               c.Seed,
			Calls:              c.Result.Calls,
			WallMS:             float64(c.Host.WallNS) / 1e6,
			SyscallsPerHostSec: perHostSec(uint64(c.Result.Calls), wall),
			SimEventsTotal:     c.Host.Events,
			EventsPerHostSec:   perHostSec(c.Host.Events, wall),
			SimProcSwitches:    c.Host.ProcSwitches,
			SimCallbacksRun:    c.Host.CallbacksRun,
			SimProcsReaped:     c.Host.ProcsReaped,
			SimTimersCanceled:  c.Host.TimersCanceled,
			ParallelWorker:     c.Worker,
		})
	}
	if rep.Workers > 0 {
		rep.EventsPerHostSecPerCore = perHostSec(events, suiteWall) / float64(rep.Workers)
	}
	return rep
}

// JSON renders the report as indented, key-stable JSON.
func (r HostReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
