//go:build !linux

package main

import "time"

var started = time.Now()

// processCPU falls back to the wall clock off Linux.
func processCPU() time.Duration { return time.Since(started) }

// untracked allocates on the Go heap off Linux.
func untracked(n int) []uint32 { return make([]uint32, n) }
