//go:build unix

package expt

import "syscall"

// processCPU returns the process's cumulative user+system CPU time in
// nanoseconds, or 0 when the platform cannot report it. Deltas across an
// experiment attribute its CPU cost.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
