package compress

// Block decoding behind graph.Adj's Slice. The hot traversal loops hand
// Slice a per-worker scratch and get back flat slices: varint decode cost
// is paid once per compression block entered, and the per-edge cost
// downstream is a plain slice iteration.

import "sage/internal/graph"

// Slice implements graph.Adj: byte-compressed adjacency is never flat, so
// positions [lo, hi) of v are block-decoded into s (contents overwritten,
// capacity grown as needed). Because blocks decode sequentially,
// positions before lo inside the first block are decoded and skipped —
// the cost behaviour Appendix D.1 studies — and decoding stops at hi.
//
//sage:hotpath
func (c *CGraph) Slice(v, lo, hi uint32, s *graph.Scratch) ([]uint32, []int32) {
	if c.weighted {
		s.Nghs, s.Ws = c.decodeW(v, lo, hi, s.Nghs, s.Ws)
		return s.Nghs, s.Ws
	}
	s.Nghs = c.decode(v, lo, hi, s.Nghs)
	return s.Nghs, nil
}

// decode fills buf with the neighbors at positions [lo, hi) of v,
// skipping over interleaved weights.
//
//sage:hotpath
func (c *CGraph) decode(v, lo, hi uint32, buf []uint32) []uint32 {
	buf = buf[:0]
	if hi > c.degrees[v] {
		hi = c.degrees[v]
	}
	if hi <= lo {
		return buf
	}
	region := c.region(v)
	nb := c.numBlocks(v)
	for b := lo / c.blockSize; b <= (hi-1)/c.blockSize && b < nb; b++ {
		blo := b * c.blockSize
		bhi := min(blo+c.blockSize, c.degrees[v])
		pos := int(getU32(region[4*b:]))
		first, k := getVarint(region[pos:])
		pos += k
		ngh := uint32(int64(v) + unzigzag(first))
		if c.weighted {
			_, k := getVarint(region[pos:])
			pos += k
		}
		if blo >= lo {
			buf = append(buf, ngh)
		}
		if blo >= lo && bhi <= hi {
			// Interior block: no per-edge bounds checks needed.
			if c.weighted {
				for i := blo + 1; i < bhi; i++ {
					gap, k := getVarint(region[pos:])
					pos += k
					ngh += uint32(gap)
					_, k = getVarint(region[pos:])
					pos += k
					buf = append(buf, ngh)
				}
			} else {
				for i := blo + 1; i < bhi; i++ {
					gap, k := getVarint(region[pos:])
					pos += k
					ngh += uint32(gap)
					buf = append(buf, ngh)
				}
			}
			continue
		}
		// Boundary block: decode until hi, keep the positions >= lo.
		for i := blo + 1; i < bhi; i++ {
			if i >= hi {
				break
			}
			gap, k := getVarint(region[pos:])
			pos += k
			ngh += uint32(gap)
			if c.weighted {
				_, k := getVarint(region[pos:])
				pos += k
			}
			if i >= lo {
				buf = append(buf, ngh)
			}
		}
	}
	return buf
}

// decodeW is decode for weighted graphs, additionally decoding the
// interleaved zigzag-varint weights into wbuf.
//
//sage:hotpath
func (c *CGraph) decodeW(v, lo, hi uint32, buf []uint32, wbuf []int32) ([]uint32, []int32) {
	buf = buf[:0]
	wbuf = wbuf[:0]
	if hi > c.degrees[v] {
		hi = c.degrees[v]
	}
	if hi <= lo {
		return buf, wbuf
	}
	region := c.region(v)
	nb := c.numBlocks(v)
	for b := lo / c.blockSize; b <= (hi-1)/c.blockSize && b < nb; b++ {
		blo := b * c.blockSize
		bhi := min(blo+c.blockSize, c.degrees[v])
		pos := int(getU32(region[4*b:]))
		first, k := getVarint(region[pos:])
		pos += k
		ngh := uint32(int64(v) + unzigzag(first))
		enc, k := getVarint(region[pos:])
		pos += k
		w := int32(unzigzag(enc))
		if blo >= lo {
			buf = append(buf, ngh)
			wbuf = append(wbuf, w)
		}
		for i := blo + 1; i < bhi; i++ {
			if i >= hi {
				break
			}
			gap, k := getVarint(region[pos:])
			pos += k
			ngh += uint32(gap)
			enc, k := getVarint(region[pos:])
			pos += k
			w = int32(unzigzag(enc))
			if i >= lo {
				buf = append(buf, ngh)
				wbuf = append(wbuf, w)
			}
		}
	}
	return buf, wbuf
}
