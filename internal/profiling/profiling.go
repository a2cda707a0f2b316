// Package profiling backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof. The profiles are written for
// `go tool pprof`; nothing a tool prints to standard output changes.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CPUUsage and MemUsage are the flag usage strings shared by the tools.
const (
	CPUUsage = "write a CPU profile of the whole run to this file"
	MemUsage = "write an allocation profile to this file at exit"
)

// Start begins a CPU profile into cpuPath when it is non-empty. The
// returned stop function ends it and, when memPath is non-empty, writes
// the allocation profile there after a garbage collection, so the
// in-use figures are current. Call stop exactly once.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeAllocs(memPath); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocs writes the allocs profile (every sampled allocation since
// the program started, plus what is still in use) to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
