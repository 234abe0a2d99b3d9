package main

import (
	"bufio"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hybp/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS, so peakRSSMiB covers only what follows. It reports whether the
// kernel supports it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS (or since start).
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnapshot is the slice of runtime.MemStats a pass is charged with.
type memSnapshot struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// meter brackets one timed phase: wall, CPU, heap allocation and GC.
type meter struct {
	start time.Time
	cpu   float64
	mem   memSnapshot
}

func startMeter() meter {
	resetPeakRSS()
	return meter{start: time.Now(), cpu: cpuSeconds(), mem: readMem()}
}

// phase is what a meter measured.
type phase struct {
	wallS, cpuS, allocMiB float64
	rssPeakMiB            float64
	gcCycles              float64
	gcPauseMs             float64
}

func (m meter) stop() phase {
	wall := time.Since(m.start).Seconds()
	cpu := cpuSeconds() - m.cpu
	mem := readMem()
	return phase{
		wallS:      wall,
		cpuS:       cpu,
		rssPeakMiB: peakRSSMiB(),
		allocMiB:   float64(mem.totalAlloc-m.mem.totalAlloc) / (1 << 20),
		gcCycles:   float64(mem.numGC - m.mem.numGC),
		gcPauseMs:  float64(mem.pauseNs-m.mem.pauseNs) / 1e6,
	}
}

// fineBoundsMS are log-spaced histogram bounds (about 3% apart) from 10µs
// to 10 minutes, so quantiles read off an obs.Histogram are accurate to a
// couple of percent.
func fineBoundsMS() []float64 {
	var b []float64
	for v := 0.01; v < 600_000; v *= 1.03 {
		b = append(b, v)
	}
	return b
}

// histQuantile estimates the q-quantile of an obs.Histogram by linear
// interpolation inside the bucket that holds it.
func histQuantile(s obs.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var prevCum uint64
	lower := 0.0
	for i, cum := range s.Cumulative {
		if float64(cum) >= rank {
			upper := lower
			if i < len(s.Bounds) {
				upper = s.Bounds[i]
			}
			inBucket := float64(cum - prevCum)
			if inBucket == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(prevCum))/inBucket
		}
		prevCum = cum
		if i < len(s.Bounds) {
			lower = s.Bounds[i]
		}
	}
	return lower
}

// mergeHist adds two snapshots of histograms with the same bounds.
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := obs.HistogramSnapshot{
		Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Bounds: a.Bounds,
		Cumulative: make([]uint64, len(a.Cumulative)),
	}
	for i := range out.Cumulative {
		out.Cumulative[i] = a.Cumulative[i] + b.Cumulative[i]
	}
	return out
}

// fnvDigest is the FNV-1a 64 hash of the concatenated byte slices.
func fnvDigest(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// splitmix64 derives well-spread sub-seeds from the benchmark seed, so
// every input a workload generates is a pure function of --seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fingerprint identifies the host a result was measured on. Results whose
// fingerprints differ measure different machines and are not compared.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sampler times every Nth call of a hot function and extrapolates the
// total, so wrappers around per-branch interfaces stay cheap. What an
// empty timed region reads is measured once and subtracted.
type sampler struct {
	calls   uint64
	sampled uint64
	ns      int64
}

const sampleEvery = 16

var (
	clockOnce       sync.Once
	clockOverheadNs float64
)

// clockOverhead is what an empty region timed with time.Now/time.Since
// reads, measured once per process.
func clockOverhead() float64 {
	clockOnce.Do(func() { clockOverheadNs = measureClockOverhead() })
	return clockOverheadNs
}

func measureClockOverhead() float64 {
	const n = 20000
	xs := make([]float64, 0, 9)
	for r := 0; r < 9; r++ {
		var acc time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			acc += time.Since(s)
		}
		xs = append(xs, float64(acc.Nanoseconds())/n)
	}
	return median(xs)
}

// tick reports whether this call is sampled.
func (s *sampler) tick() bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

func (s *sampler) add(d time.Duration) {
	s.sampled++
	s.ns += d.Nanoseconds()
}

// perCallNs is the estimated mean cost of one call.
func (s *sampler) perCallNs() float64 {
	if s.sampled == 0 {
		return math.NaN()
	}
	return float64(s.ns)/float64(s.sampled) - clockOverhead()
}

// totalNs is the estimated total time spent in all calls.
func (s *sampler) totalNs() float64 { return s.perCallNs() * float64(s.calls) }

// parallel calls f(0..n-1) on procs goroutines and waits for all of them.
func parallel(n, procs int, f func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// hostRefMS times a fixed integer loop (median of five): a reading of the
// host's speed, reported beside each run's metrics so that runs taken
// while a shared host was slowed can be told apart.
func hostRefMS() float64 {
	var xs []float64
	x := uint64(88172645463325252)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		xs = append(xs, float64(time.Since(t0).Microseconds())/1000)
	}
	if x == 0 {
		xs = append(xs, 0) // keeps the loop's result live
	}
	return median(xs)
}
