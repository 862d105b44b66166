// Package core is a deliberately broken miniature of repro/internal/core
// used by the acplint command tests: its import path ends in
// internal/core, so the determinism analyzer applies, and Stamp violates
// it.
package core

import "time"

// Stamp reads the wall clock inside a deterministic package.
func Stamp() time.Time {
	return time.Now()
}

// Tidy is clean: no clock, no global rand.
func Tidy(vals []int) int {
	total := 0
	for _, v := range vals {
		total += v
	}
	return total
}
