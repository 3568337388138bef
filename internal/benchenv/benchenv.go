// Package benchenv captures the execution environment of a benchmark run.
// Every benchmark report (the BENCH_*.json micro-benchmark files and the
// perfbench result line, see perfbench/README.md and BENCHMARK.json) embeds
// one Env so a slower number can be told apart from a hardware or toolchain
// change: two reports are only comparable when their environments are.
package benchenv

import (
	"os"
	"runtime"
	"strings"
)

// Env describes the machine and toolchain a benchmark ran on.
type Env struct {
	// GoVersion is the running toolchain (runtime.Version()).
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH identify the platform the binary was built for.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS is the scheduler's parallelism bound at capture time — the
	// knob that decides how many counting shards and stolen subtrees
	// actually run concurrently.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count (GOMAXPROCS may be lower).
	NumCPU int `json:"num_cpu"`
	// CPUModel is the processor's self-reported model name (from
	// /proc/cpuinfo on Linux; empty where unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Capture records the current environment.
func Capture() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo. Best-effort:
// a missing or unparseable file (non-Linux platforms, restricted containers)
// yields the empty string rather than an error — the environment record must
// never fail a benchmark.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
