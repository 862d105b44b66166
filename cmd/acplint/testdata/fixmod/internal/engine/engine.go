// Package engine is the concurrency-safety half of the broken fixture
// module: one mixed atomic/plain access, so the command tests can assert
// the full suite fires end to end.
package engine

import "sync/atomic"

// stats mixes atomic and plain access to the same field.
type stats struct {
	ops int64
}

func (s *stats) bump() { atomic.AddInt64(&s.ops, 1) }

func (s *stats) read() int64 { return s.ops }
