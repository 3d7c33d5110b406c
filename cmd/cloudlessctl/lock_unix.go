//go:build unix

package main

import (
	"os"
	"syscall"
)

// lockExclusive takes f's advisory lock without waiting. The kernel drops it
// when the process ends, however it ends, so a killed command leaves no
// stale lock behind.
func lockExclusive(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
