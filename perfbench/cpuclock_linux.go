package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time this process has run so far, all threads,
// user and system. On a virtual machine whose kernel accounts steal
// (paravirtual steal time), time the host took the vCPUs away is not in
// it, so it does not grow when the host is busy.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// untracked returns n zeroed uint32s mapped outside the Go heap, so that
// the reference task's table does not count in peak_heap_mb. They are
// never unmapped.
func untracked(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
