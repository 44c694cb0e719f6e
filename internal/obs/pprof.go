package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile to the file cpu and arranges a heap
// profile to the file mem (either "" for none), and returns a function that
// flushes them; it must run before the process exits (so a command's main
// returns an exit code instead of calling os.Exit directly).
func StartProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
