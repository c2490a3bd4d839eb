//go:build !linux

package main

import "time"

// sleepUntil waits until t with the runtime's timers.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// lockPreciseThread is a no-op off Linux.
func lockPreciseThread() {}
