//go:build !linux

package runtime

// tailSeconds is 0 off Linux: the timer sleeps each whole wait.
const tailSeconds = 0

func sleepTail(float64) bool { return false }
