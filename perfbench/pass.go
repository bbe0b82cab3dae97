package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"genesys/internal/experiments"
	"genesys/internal/obs"
	"genesys/internal/platform"
)

// A pass runs one workload once, in a process of its own, and measures
// it from outside the simulator: it times its own calls into platform,
// sim and obs, and reads each machine's metrics registry once the
// machine is shut down.

// workload is one benchmark input: a fixed driver over the simulator's
// public entry points, parameterised only by the seed.
type workload struct {
	name string
	run  func(p *pass, seed int64) (digest string, err error)
}

// workloads are the benchmark's inputs; README.md says why each was
// chosen.
var workloads = []workload{
	{"fleet", runFleet},
	{"wordcount-ssd", runFigure("fig13b")},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// registryCounts maps each per-layer count to the registry metric it is
// read from; a pass sums them over its machines.
var registryCounts = []struct{ metric, registry string }{
	{"sim.events", "sim.events_total"},
	{"sim.proc_switches", "sim.proc_switches_total"},
	{"sim.callbacks", "sim.callbacks_run"},
	{"sim.wheel_scheduled", "sim.wheel_scheduled"},
	{"core.invocations", "genesys.invocations"},
	{"core.batches", "genesys.batches"},
	{"core.retries", "genesys.retries"},
	{"core.slot_conflicts", "genesys.slot_conflicts"},
	{"oskern.syscalls", "oskern.syscalls"},
	{"oskern.tasks_run", "oskern.tasks_run"},
	{"oskern.redispatches", "oskern.redispatches"},
	{"gpu.wgs_dispatched", "gpu.wgs_dispatched"},
	{"gpu.interrupts", "gpu.interrupts"},
	{"gpu.halts", "gpu.halts"},
	{"gpu.resumes", "gpu.resumes"},
	{"mem.atomic_ops", "mem.atomic_ops"},
	{"mem.l2_misses", "mem.l2_misses"},
	{"mem.dram_accesses", "mem.dram_accesses"},
	{"blockdev.commands", "blockdev.commands"},
	{"blockdev.bytes_read", "blockdev.bytes_read"},
	{"blockdev.bytes_written", "blockdev.bytes_written"},
	{"blockdev.retries", "blockdev.retries"},
	{"netstack.sent", "netstack.sent"},
	{"netstack.dropped", "netstack.dropped"},
	{"netstack.stream_conns", "netstack.stream_conns"},
	{"netstack.stream_bytes", "netstack.stream_bytes"},
	{"obs.events_dropped", "obs.events_dropped"},
	{"obs.flight_chains", "obs.flight_chains"},
}

// span is one interval the benchmark timed around its own calls, in
// seconds from the start of the pass. Machine is the machine's index in
// the pass, or -1 for work that belongs to the pass as a whole.
type span struct {
	Name    string  `json:"name"`
	Machine int     `json:"machine"`
	StartS  float64 `json:"start_s"`
	DurS    float64 `json:"dur_s"`
}

// passResult is what a pass process reports to the driver. Its times
// are CPU seconds of the pass's process, except WallS.
type passResult struct {
	CPUS     float64 `json:"cpu_s"`
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s"`
	DistillS float64 `json:"distill_s"`
	AllocMB  float64 `json:"alloc_mb"`
	Mallocs  uint64  `json:"mallocs"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	Machines int     `json:"machines"`
	Failed   int     `json:"failed"`
	// Errors says why machines failed.
	Errors []string `json:"errors,omitempty"`
	// Digest is the SHA-256 of the pass's virtual-time output.
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
	// SelfS and Spans are filled by a profiled pass only.
	SelfS map[string]float64 `json:"self_s,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// stamp is an instant of a pass: the wall time, which places spans on
// the trace's timeline, and the CPU time the process has used so far,
// which the timing metrics are measured in. On a shared host the
// process loses the processor to other guests for seconds at a time;
// wall time counts those waits and CPU time does not.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp { return stamp{time.Now(), processCPUSeconds()} }

// cpuTo is the CPU time the process used from s to e, in seconds.
func (s stamp) cpuTo(e stamp) float64 { return e.cpu - s.cpu }

// pass is the state of one pass while it runs.
type pass struct {
	start    stamp
	profiled bool
	res      passResult
	cur      *machine
}

// machine is a figure workload's machine between its construction and
// the construction of the next one.
type machine struct {
	id    int
	m     *platform.Machine
	built stamp // Observe ran: construction is complete
	first stamp // the engine executed the benchmark's t=0 marker
}

func (p *pass) span(name string, id int, from, to stamp) {
	if p.profiled {
		p.res.Spans = append(p.res.Spans, span{name, id,
			from.wall.Sub(p.start.wall).Seconds(), to.wall.Sub(from.wall).Seconds()})
	}
}

// addCounts adds a shut-down machine's registry counts to the pass.
// markers is the number of events the benchmark itself scheduled on it,
// taken back out of the engine totals so the counts are the program's.
func (p *pass) addCounts(reg *obs.Registry, markers int64) {
	for _, c := range registryCounts {
		v, _ := reg.Value(c.registry)
		if c.metric == "sim.events" || c.metric == "sim.callbacks" {
			v -= markers
		}
		p.res.Counts[c.metric] += v
	}
}

// observe is the Options.Observe hook of the figure workloads, called
// right after each machine's construction. The machines of one
// experiment run one after another, so a new machine means the previous
// one has been shut down.
func (p *pass) observe(m *platform.Machine) {
	p.retire()
	mc := &machine{id: p.res.Machines, m: m, built: now()}
	p.res.Machines++
	p.cur = mc
	// The marker is queued behind only the machine's own daemon
	// start-ups, so it runs among the first events at t=0. It changes no
	// virtual time: the golden digests, made without it, prove that.
	m.E.CallAt(0, func() { mc.first = now() })
}

// retire closes the current figure machine: its setup ends at the
// marker, and its counts are read from the registry.
func (p *pass) retire() {
	mc := p.cur
	if mc == nil {
		return
	}
	p.cur = nil
	end := now()
	first := mc.first
	if first.wall.IsZero() { // the engine never ran
		first = end
	}
	p.res.SetupS += mc.built.cpuTo(first)
	p.span("setup", mc.id, mc.built, first)
	p.span("run", mc.id, first, end)
	p.addCounts(mc.m.Obs.Metrics, 1)
	done := now()
	p.res.DistillS += end.cpuTo(done)
	p.span("read-registry", mc.id, end, done)
}

// fleetMachines is how many fleet machines one pass runs. The fleet's
// work varies with its seed (events per machine differ by up to a fifth
// between seeds), so a pass sums several machines to keep a run's
// figures close from one --seed to the next.
const fleetMachines = 4

// fleetSeeds are the machine seeds of a fleet pass at --seed s: disjoint
// blocks, with seed 1 starting at the bench suite's default seed 1.
func fleetSeeds(s int64) []int64 {
	out := make([]int64, fleetMachines)
	for i := range out {
		out[i] = (s-1)*fleetMachines + 1 + int64(i)
	}
	return out
}

// runFleet drives the fleet bench case through StartBench and Finish,
// running the engine itself in between so construction, simulation and
// distillation are timed apart. The digest covers every machine's
// BENCH_fleet.json and artifacts, in seed order.
func runFleet(p *pass, seed int64) (string, error) {
	h := sha256.New()
	for id, s := range fleetSeeds(seed) {
		if err := runFleetMachine(p, id, s, h); err != nil {
			return "", fmt.Errorf("fleet seed %d: %w", s, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func runFleetMachine(p *pass, id int, seed int64, digest io.Writer) error {
	t0 := now()
	br, err := experiments.StartBench("fleet", seed)
	t1 := now()
	p.res.Machines++
	if err != nil {
		return err
	}
	// The engine's first event runs as soon as Run is called, so setup is
	// construction plus staging.
	p.res.SetupS += t0.cpuTo(t1)
	p.span("construct", id, t0, t1)
	runErr := br.M.E.Run()
	t2 := now()
	p.span("run", id, t1, t2)
	var res experiments.BenchResult
	var artifacts map[string][]byte
	if runErr == nil {
		// Finish's own Run returns at once: the engine is quiescent.
		res, _, artifacts, runErr = br.Finish()
	}
	t3 := now()
	p.span("distill", id, t2, t3)
	p.res.DistillS += t2.cpuTo(t3)
	br.Close()
	p.addCounts(br.M.Obs.Metrics, 0)
	if runErr != nil {
		return runErr
	}
	digest.Write(res.JSON())
	names := make([]string, 0, len(artifacts))
	for n := range artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		digest.Write(artifacts[n])
	}
	return nil
}

// runFigure drives one paper-figure experiment at a single run per data
// point, observing every machine it builds.
func runFigure(id string) func(*pass, int64) (string, error) {
	return func(p *pass, seed int64) (string, error) {
		fn, ok := experiments.ByID(id)
		if !ok {
			return "", fmt.Errorf("unknown experiment %q", id)
		}
		tbl := fn(experiments.Options{Runs: 1, BaseSeed: seed, Observe: p.observe})
		p.retire()
		t := now()
		out := tbl.Render()
		done := now()
		p.res.DistillS += t.cpuTo(done)
		p.span("render", -1, t, done)
		sum := sha256.Sum256([]byte(out))
		return hex.EncodeToString(sum[:]), nil
	}
}

// recovered runs w, turning a panic — which is how the experiments
// report a machine that failed its own validation — into an error.
func recovered(w workload, p *pass, seed int64) (digest string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(p, seed)
}

// runPass runs w once in this process. A profiled pass also records
// spans and charges CPU-profile samples to layers.
//
// The pass runs on a single P. The simulator is sequential; a second P
// only adds CPU time that depends on how busy the host's other CPU is:
// threads spinning after each goroutine handoff, and GC mark workers
// that run whenever that P is idle.
func runPass(w workload, seed int64, profiled bool) (passResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &pass{profiled: profiled, res: passResult{Counts: map[string]int64{}}}
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return passResult{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	p.start = now()

	digest, err := recovered(w, p, seed)
	p.retire()

	end := now()
	cpu := p.start.cpuTo(end)
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	r := &p.res
	r.CPUS = cpu
	r.WallS = end.wall.Sub(p.start.wall).Seconds()
	r.GCCPUS = gcCPUSeconds() - gc0
	r.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.Mallocs = ms1.Mallocs - ms0.Mallocs
	r.Digest = digest
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
		if r.Machines == 0 {
			r.Machines = 1
		}
	}
	if profiled {
		self, perr := layerSelfSeconds(prof.Bytes(), cpu)
		if perr != nil {
			return passResult{}, perr
		}
		r.SelfS = self
		r.Spans = append(r.Spans, span{"pass", -1, 0, r.WallS})
	}
	return *r, nil
}

// layerSelfSeconds charges each profile sample to its layer and scales
// the sample shares by the CPU time the process used during the pass,
// which is measured exactly where the sample count is quantised.
func layerSelfSeconds(gz []byte, cpuS float64) (map[string]float64, error) {
	samples, err := parseCPUProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[sampleLayer(s.funcs)] += s.count
		total += s.count
	}
	self := map[string]float64{}
	if total == 0 {
		return self, nil
	}
	for layer, n := range counts {
		self[layer] = cpuS * float64(n) / float64(total)
	}
	return self, nil
}

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
