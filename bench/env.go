package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"pane/internal/engine"
)

// env is the stamp every output carries, so that a number can be read
// against the machine and build that produced it.
type env struct {
	CPU        string            `json:"cpu"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Kernels    map[string]string `json:"kernels"` // engine.KernelDispatch()
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Awake      string            `json:"awake"` // scheduling class of the keep-awake threads
	Nodes      int               `json:"nodes"`
	Edges      int               `json:"edges"`
	Attrs      int               `json:"attrs"`
	K          int               `json:"k"`
}

func stamp(f *fixture) env {
	e := env{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels: engine.KernelDispatch(), Go: runtime.Version(), Commit: commit(),
	}
	if f != nil {
		e.Nodes, e.Edges, e.Attrs, e.K = f.g.N, f.g.M(), f.g.D, f.cfg.K
	}
	return e
}

func cpuModel() string {
	file, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary; a checkout
// that is not a git repository builds without one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), which
// includes training: set-up is part of what a restart costs in memory.
func peakRSSMB() float64 {
	file, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
