//go:build !linux

package main

import "time"

// rotateCPUs is a no-op where threads cannot be pinned to CPUs.
func rotateCPUs(time.Duration, <-chan struct{}) {}
