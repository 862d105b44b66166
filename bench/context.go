package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runContext is echoed with every output, so that two numbers are only
// compared when they were taken on the same kind of machine.
func runContext() string {
	return fmt.Sprintf("context: %s nproc=%d cpu=%q commit=%s (GOMAXPROCS is per workload)",
		runtime.Version(), runtime.NumCPU(), cpuModel(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the build ran
// inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
