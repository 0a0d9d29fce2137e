//go:build linux

package runtime

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// tailSeconds is the end of a wall-clock wait slept in the kernel: long
// enough to cover a timer's up-to-1 ms overshoot, short enough that a
// cancelled wait still returns within it.
const tailSeconds = 1.5e-3

// tailSleepers counts the goroutines that hold or are asking for a tail
// slot. Each tail holds its OS thread, so at most GOMAXPROCS hold one,
// counted across every wall clock of the process.
var tailSleepers atomic.Int32

// sleepTail sleeps d seconds in nanosleep(2), whose high-resolution timer
// wakes within ~50 µs, and reports whether it did: false means every
// tail slot was taken and the caller must wait on its timer.
func sleepTail(d float64) bool {
	if !acquireTail() {
		return false
	}
	ts := syscall.NsecToTimespec(int64(d * 1e9))
	_ = syscall.Nanosleep(&ts, nil) // EINTR wakes early; the caller re-checks the time
	tailSleepers.Add(-1)
	return true
}

// acquireTail tries to take a tail slot without blocking. A caller it
// refuses leaves the count as it found it; a transient over-count only
// refuses more, never admits more than GOMAXPROCS.
func acquireTail() bool {
	if int(tailSleepers.Add(1)) <= runtime.GOMAXPROCS(0) {
		return true
	}
	tailSleepers.Add(-1)
	return false
}
