package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocs, bytes, gcCycles uint64
	gcPause                 time.Duration
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.allocs += after.Mallocs - before.Mallocs
	d.bytes += after.TotalAlloc - before.TotalAlloc
	d.gcCycles += uint64(after.NumGC - before.NumGC)
	d.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// meta is the run metadata every record carries.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Started    string  `json:"started"`
}

func collectMeta(workload string, p params) meta {
	return meta{
		Workload:   workload,
		Seed:       p.seed,
		Seconds:    p.seconds.Seconds(),
		Trace:      p.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where the
// platform has one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
