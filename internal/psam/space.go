package psam

import "sync/atomic"

// Space tracks the small-memory (DRAM) footprint of an algorithm in words,
// maintaining the current and peak residency. It backs the O(n) /
// O(n + m/log n) space claims of Table 1 and the memory-usage comparison of
// Table 5 (Appendix D.2). Alloc/Free are called by the traversal and
// filter layers at every temporary allocation.
type Space struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// NewSpace returns an empty space tracker.
func NewSpace() *Space { return &Space{} }

// Alloc records an allocation of words words and updates the peak.
func (s *Space) Alloc(words int64) {
	if s == nil {
		return
	}
	cur := s.cur.Add(words)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Free records the release of words words.
func (s *Space) Free(words int64) {
	if s == nil {
		return
	}
	s.cur.Add(-words)
}

// Current reports the currently tracked residency in words.
func (s *Space) Current() int64 {
	if s == nil {
		return 0
	}
	return s.cur.Load()
}

// Peak reports the maximum tracked residency in words.
func (s *Space) Peak() int64 {
	if s == nil {
		return 0
	}
	return s.peak.Load()
}
