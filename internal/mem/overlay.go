package mem

// RegionPair is a matched (destination, source) pair of equal length,
// produced by overlaying two scatter/gather lists.
type RegionPair struct {
	Dst, Src Region
}

// OverlayEach walks dst and src as one logical stream and calls fn with
// each matched contiguous pair, in stream order, no longer than maxChunk
// bytes (maxChunk <= 0 means unlimited). Total lengths must match. This is
// how a kernel copy loop or a DMA submission path linearizes vectorial
// (noncontiguous) buffers; it allocates nothing, and fn may block (the
// vectors are read again after fn returns, so they must not change).
func OverlayEach(dst, src IOVec, maxChunk int64, fn func(RegionPair)) {
	if dst.TotalLen() != src.TotalLen() {
		panic("mem: Overlay length mismatch")
	}
	di, si := 0, 0
	var doff, soff int64
	for di < len(dst) && si < len(src) {
		d, s := dst[di], src[si]
		n := d.Len - doff
		if s.Len-soff < n {
			n = s.Len - soff
		}
		if maxChunk > 0 && n > maxChunk {
			n = maxChunk
		}
		if n > 0 {
			fn(RegionPair{
				Dst: Region{Buf: d.Buf, Off: d.Off + doff, Len: n},
				Src: Region{Buf: s.Buf, Off: s.Off + soff, Len: n},
			})
			doff += n
			soff += n
		}
		if doff == d.Len {
			di++
			doff = 0
		}
		if soff == s.Len {
			si++
			soff = 0
		}
	}
}

// SliceInto appends the sub-vector covering logical bytes [off, off+n) of
// v to out and returns it: pass a reused out[:0] (or a stack array's
// slice) and the per-chunk windows of a transfer allocate nothing.
func (v IOVec) SliceInto(out IOVec, off, n int64) IOVec {
	if off < 0 || n < 0 || off+n > v.TotalLen() {
		panic("mem: IOVec.SliceInto out of range")
	}
	for _, r := range v {
		if n <= 0 {
			break
		}
		if off >= r.Len {
			off -= r.Len
			continue
		}
		take := r.Len - off
		if take > n {
			take = n
		}
		out = append(out, Region{Buf: r.Buf, Off: r.Off + off, Len: take})
		off = 0
		n -= take
	}
	return out
}

// PhysDescriptors returns the number of physically contiguous descriptor
// pairs needed to express the pair for DMA hardware: the overlay of the
// physical runs of both sides, walked without materialising either.
func (rp RegionPair) PhysDescriptors(runPages int) int {
	dst, src := rp.Dst.Addr(), rp.Src.Addr()
	count := 0
	for left := uint64(rp.Src.Len); left > 0; count++ {
		n := min(rp.Dst.Buf.space.physRun(dst, left, runPages), rp.Src.Buf.space.physRun(src, left, runPages))
		dst += n
		src += n
		left -= n
	}
	return count
}
