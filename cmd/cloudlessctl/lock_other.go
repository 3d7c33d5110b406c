//go:build !unix

package main

import "os"

// lockExclusive takes no lock where the standard library has no flock:
// there, running one command per data dir at a time is up to the user.
func lockExclusive(*os.File) error { return nil }
