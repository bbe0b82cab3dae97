package workloads

import (
	"bytes"
	"fmt"
	"math/rand"

	"genesys/internal/core"
	"genesys/internal/cpu"
	"genesys/internal/fs"
	"genesys/internal/gpu"
	"genesys/internal/platform"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

// WordcountVariant selects a Figure 13b configuration.
type WordcountVariant int

const (
	// WordcountCPU is the OpenMP host implementation: every thread
	// opens, reads and scans files.
	WordcountCPU WordcountVariant = iota
	// WordcountGPUNoSyscall is the conventional GPU offload of Figure 1
	// (left): the CPU serially reads each file, stages it to GPU memory,
	// launches a kernel and waits — no overlap anywhere.
	WordcountGPUNoSyscall
	// WordcountGENESYS processes files from GPU work-groups with
	// open/read/close through GENESYS (blocking, weak ordering —
	// §VIII-C, the original GPUfs workload).
	WordcountGENESYS
)

func (v WordcountVariant) String() string {
	switch v {
	case WordcountCPU:
		return "CPU-OpenMP"
	case WordcountGPUNoSyscall:
		return "GPU-no-syscall"
	case WordcountGENESYS:
		return "GENESYS"
	}
	return "unknown"
}

// WordcountConfig parameterizes the §VIII-C storage case study: count
// occurrences of 64 search strings across a directory of files on the
// SSD (the workload evaluated in the original GPUfs paper).
type WordcountConfig struct {
	Variant   WordcountVariant
	Files     int
	FileBytes int64
	Words     int
	// CPUScanBytesPerNS is a core's 64-pattern naive scan rate (the
	// paper's CPU version is compute-heavy; its disk never exceeds
	// ~30 MB/s).
	CPUScanBytesPerNS float64
	// GPUScanBytesPerNS is one work-group's scan rate.
	GPUScanBytesPerNS float64
	// StageBytesPerNS is the GPU-no-syscall host→GPU staging bandwidth
	// (uncached write-combined copies on pre-SVM paths).
	StageBytesPerNS float64
	// GPUWorkGroups is the GENESYS reader work-group count (drives the
	// I/O queue depth that unlocks the SSD's channels).
	GPUWorkGroups int
	CPUThreads    int
	Seed          int64
}

// DefaultWordcountConfig mirrors the evaluation: 64 strings over a
// 48 MiB corpus of 256 KiB files, read cold from the SSD.
func DefaultWordcountConfig(v WordcountVariant) WordcountConfig {
	return WordcountConfig{
		Variant:           v,
		Files:             192,
		FileBytes:         256 << 10,
		Words:             64,
		CPUScanBytesPerNS: 0.012, // 12 MB/s per core over 64 patterns
		GPUScanBytesPerNS: 4.0,
		StageBytesPerNS:   0.5,
		GPUWorkGroups:     16,
		CPUThreads:        4,
		Seed:              7,
	}
}

// WordcountResult reports one run.
type WordcountResult struct {
	Runtime sim.Time
	// Counts is the per-word occurrence count found by the run.
	Counts []int64
	// Expected is the reference count computed outside the simulation.
	Expected []int64
	// MeanCPUUtil is mean CPU utilization (%) over the run (Figure 14).
	MeanCPUUtil float64
	// DiskTrace is per-bin SSD throughput in MB/s (Figure 14).
	DiskTrace []float64
	// PeakDiskMBs is the highest bin; MeanDiskMBs averages the non-idle
	// portion of the run.
	PeakDiskMBs float64
	MeanDiskMBs float64
}

// Correct reports whether the counts match the reference.
func (r WordcountResult) Correct() bool {
	if len(r.Counts) != len(r.Expected) {
		return false
	}
	for i := range r.Counts {
		if r.Counts[i] != r.Expected[i] {
			return false
		}
	}
	return true
}

// wcWords returns the search strings ("wordNNzzq").
func wcWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("word%02dzzq", i)
	}
	return words
}

func wcFileName(i int) string { return fmt.Sprintf("/data/corpus/doc%04d", i) }

// wcWriteCorpus generates the corpus one file at a time into a single
// reused buffer — noise letters with planted search words — writes each
// file to m, and returns the reference counts.
func wcWriteCorpus(m *platform.Machine, cfg WordcountConfig) ([]int64, error) {
	src := rand.NewSource(cfg.Seed)
	rng := rand.New(src)
	words := wcWords(cfg.Words)
	counts := make([]int64, cfg.Words)
	data := make([]byte, cfg.FileBytes)
	const cell = 64 << 10
	for f := 0; f < cfg.Files; f++ {
		wcNoise(src, data)
		plants := int(cfg.FileBytes / (16 << 10))
		cells := cfg.FileBytes / cell
		for i := 0; i < plants; i++ {
			w := rng.Intn(cfg.Words)
			off := rng.Int63n(cells)*cell + 16 + rng.Int63n(cell-128)
			copy(data[off:], words[w])
		}
		countChunk(data, words, counts)
		if err := m.WriteFile(wcFileName(f), data); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// wcNoise fills data with letters a–t. Each byte is 'a'+rand.Intn(20)
// drawn straight from src: the same rejection sampling as
// rand.(*Rand).Int31n, so the byte stream is identical to calling Intn
// on a Rand over src, without its per-byte call chain.
func wcNoise(src rand.Source, data []byte) {
	const limit = (1<<31 - 1) - (1<<31)%20
	for i := range data {
		v := int32(src.Int63() >> 32)
		for v > limit {
			v = int32(src.Int63() >> 32)
		}
		data[i] = byte('a' + v%20)
	}
}

// countChunk accumulates per-word counts for one chunk. The noise
// alphabet is a–t, so every candidate match starts at a planted 'w'; the
// single-pass scan exploits that while remaining exact (overlapping
// plants that clobber each other are rejected by the full-pattern check).
func countChunk(chunk []byte, words []string, into []int64) {
	for i := 0; i < len(chunk); {
		j := bytes.IndexByte(chunk[i:], 'w')
		if j < 0 {
			return
		}
		pos := i + j
		if pos+9 <= len(chunk) &&
			string(chunk[pos:pos+4]) == "word" &&
			string(chunk[pos+6:pos+9]) == "zzq" {
			d1, d2 := chunk[pos+4], chunk[pos+5]
			if d1 >= '0' && d1 <= '9' && d2 >= '0' && d2 <= '9' {
				if w := int(d1-'0')*10 + int(d2-'0'); w < len(into) {
					into[w]++
				}
			}
		}
		i = pos + 1
	}
}

// RunWordcount executes one wordcount variant. The SSD page cache is
// dropped first so every variant reads cold.
func RunWordcount(m *platform.Machine, cfg WordcountConfig) (WordcountResult, error) {
	if _, err := m.SSDFS.Mount(m.VFS, "/data/corpus"); err != nil {
		return WordcountResult{}, err
	}
	expected, err := wcWriteCorpus(m, cfg)
	if err != nil {
		return WordcountResult{}, err
	}
	m.SSDFS.DropCaches()
	m.SSD.ResetStats()
	pr := m.NewProcess("wordcount")
	words := wcWords(cfg.Words)
	counts := make([]int64, cfg.Words)

	var runtime sim.Time
	switch cfg.Variant {
	case WordcountCPU:
		// OpenMP: each thread claims files, reading and scanning them.
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			done := sim.NewCond(m.E)
			active := cfg.CPUThreads
			next := 0
			for t := 0; t < cfg.CPUThreads; t++ {
				pr.Spawn(fmt.Sprintf("omp%d", t), func(tp *sim.Proc) {
					io := &fs.IOCtx{P: tp, CPU: m.CPU, Prio: cpu.PrioNormal}
					buf := make([]byte, cfg.FileBytes)
					local := make([]int64, cfg.Words)
					for {
						f := next
						if f >= cfg.Files {
							break
						}
						next++
						fh, err := m.VFS.Open(wcFileName(f), fs.O_RDONLY)
						if err != nil {
							continue
						}
						n, _ := fh.Read(io, buf)
						m.CPU.ExecChunked(tp,
							sim.Time(float64(n)/cfg.CPUScanBytesPerNS),
							sim.Millisecond, cpu.PrioNormal)
						countChunk(buf[:n], words, local)
					}
					for w := range local {
						counts[w] += local[w]
					}
					active--
					if active == 0 {
						done.Broadcast()
					}
				})
			}
			for active > 0 {
				done.Wait(p, "wordcount threads")
			}
			runtime = p.Now() - start
		})

	case WordcountGPUNoSyscall:
		// Figure 1 (left): per file, the CPU reads the data, stages it
		// into GPU memory, launches a kernel and waits.
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			io := &fs.IOCtx{P: p, CPU: m.CPU, Prio: cpu.PrioNormal}
			buf := make([]byte, cfg.FileBytes)
			for f := 0; f < cfg.Files; f++ {
				fh, err := m.VFS.Open(wcFileName(f), fs.O_RDONLY)
				if err != nil {
					continue
				}
				n, _ := fh.Read(io, buf)
				if n == 0 {
					continue
				}
				fs.ChargeCopy(io, int64(n), cfg.StageBytesPerNS)
				k := m.GPU.Launch(p, gpu.Kernel{
					Name: "wc-file", WorkGroups: 1, WGSize: 256,
					Fn: func(w *gpu.Wavefront) {
						w.ComputeTime(sim.Time(float64(n) / cfg.GPUScanBytesPerNS))
						if w.IsLeader() {
							countChunk(buf[:n], words, counts)
						}
					},
				})
				k.Wait(p)
			}
			runtime = p.Now() - start
		})

	case WordcountGENESYS:
		// GPU work-groups sweep the directory: open, read (stateful,
		// work-group granularity, blocking + weak ordering), close. Many
		// outstanding reads drive the SSD queue depth (Figure 14).
		g := m.Genesys
		m.E.Spawn("host", func(p *sim.Proc) {
			start := p.Now()
			k := m.GPU.Launch(p, gpu.Kernel{
				Name:       "gpu-wordcount",
				WorkGroups: cfg.GPUWorkGroups,
				WGSize:     256,
				Fn: func(w *gpu.Wavefront) {
					sh := w.WG.Shared
					if w.IsLeader() {
						sh["buf"] = make([]byte, cfg.FileBytes)
					}
					opts := core.Options{Blocking: true, Wait: core.WaitPoll,
						Ordering: core.Relaxed, Kind: core.Producer}
					buf := sh["buf"].([]byte)
					local := make([]int64, cfg.Words)
					for f := w.WG.ID; f < cfg.Files; f += cfg.GPUWorkGroups {
						if r, inv := g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_open,
							Args: [6]uint64{fs.O_RDONLY},
							Buf:  []byte(wcFileName(f)),
						}, opts); inv {
							sh["fd"] = uint64(r.Ret)
						}
						fd := sh["fd"].(uint64)
						if r, inv := g.InvokeWG(w, syscalls.Request{
							NR:   syscalls.SYS_read,
							Args: [6]uint64{fd, uint64(cfg.FileBytes)},
							Buf:  buf,
						}, opts); inv {
							sh["n"] = r.Ret
						}
						n := sh["n"].(int64)
						w.ComputeTime(sim.Time(float64(n) / cfg.GPUScanBytesPerNS))
						if w.IsLeader() {
							countChunk(buf[:n], words, local)
						}
						g.InvokeWG(w, syscalls.Request{
							NR: syscalls.SYS_close, Args: [6]uint64{fd},
						}, core.Options{Blocking: true, Wait: core.WaitPoll,
							Ordering: core.Relaxed, Kind: core.Consumer})
					}
					if w.IsLeader() {
						for i := range local {
							counts[i] += local[i]
						}
					}
				},
			})
			k.Wait(p)
			g.Drain(p)
			runtime = p.Now() - start
		})
	}

	if err := m.Run(); err != nil {
		return WordcountResult{}, err
	}
	res := WordcountResult{
		Runtime:     runtime,
		Counts:      counts,
		Expected:    expected,
		MeanCPUUtil: m.CPU.MeanUtilization(runtime),
		DiskTrace:   m.SSD.ThroughputTrace(),
	}
	for _, v := range res.DiskTrace {
		if v > res.PeakDiskMBs {
			res.PeakDiskMBs = v
		}
	}
	if runtime > 0 {
		res.MeanDiskMBs = float64(m.SSD.BytesRead.Value()) / runtime.Seconds() / 1e6
	}
	return res, nil
}
