package main

import (
	"runtime"
	"syscall"
	"time"
)

// lockPreciseThread pins the calling goroutine to its thread and sets
// the thread's timer slack to 1 ns, so nanosleep(2) ends on time
// instead of up to 50 us late. Call it from the goroutine that sleeps.
func lockPreciseThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: the lag is measured either way
}

// sleepUntil waits until t. The runtime's timers wake an idle process
// at millisecond granularity, which would make the generator up to a
// millisecond late on every request; the last stretch is therefore a
// nanosleep(2), which the kernel ends within its timer slack (about
// 50 us).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) //lint:allow errcheck EINTR only; the loop re-checks the clock
		}
	}
}
