package ext4

// Block allocation: a bitmap allocator with a goal hint for
// contiguity and delayed reuse of freed blocks.
//
// Freed extents sit in pendingFree until the next journal commit.
// Until then their bitmap bits stay set, so they cannot be handed to
// another file while a revoked process might still have translated-
// but-unissued I/O against them (paper §3.6: "delaying re-allocation
// of blocks until a sync point").

// testBit reports whether block b is in use.
func (fs *FS) testBit(b int64) bool {
	return fs.bitmap[b/8]&(1<<(b%8)) != 0
}

func (fs *FS) setBit(b int64) {
	fs.bitmap[b/8] |= 1 << (b % 8)
	fs.dirtyBitmap[b/8/BlockSize] = true
}

func (fs *FS) clearBit(b int64) {
	fs.bitmap[b/8] &^= 1 << (b % 8)
	fs.dirtyBitmap[b/8/BlockSize] = true
}

// setRun claims blocks [b, b+n), filling whole bitmap bytes at a time
// — large fallocates walk this per block otherwise.
func (fs *FS) setRun(b, n int64) {
	for n > 0 {
		if b%8 == 0 && n >= 8 {
			fs.bitmap[b/8] = 0xff
			fs.dirtyBitmap[b/8/BlockSize] = true
			b += 8
			n -= 8
			continue
		}
		fs.setBit(b)
		b++
		n--
	}
}

// clearRun releases blocks [b, b+n), byte-filling like setRun.
func (fs *FS) clearRun(b, n int64) {
	for n > 0 {
		if b%8 == 0 && n >= 8 {
			fs.bitmap[b/8] = 0
			fs.dirtyBitmap[b/8/BlockSize] = true
			b += 8
			n -= 8
			continue
		}
		fs.clearBit(b)
		b++
		n--
	}
}

// runAt returns the length of the free run starting at b, capped at
// want, skipping whole free bitmap bytes where possible.
func (fs *FS) runAt(b, want int64) int64 {
	var n int64
	for n < want && b+n < fs.sb.BlockCount {
		if (b+n)%8 == 0 && want-n >= 8 && b+n+8 <= fs.sb.BlockCount && fs.bitmap[(b+n)/8] == 0 {
			n += 8
			continue
		}
		if fs.testBit(b + n) {
			break
		}
		n++
	}
	return n
}

// allocBlocks claims count blocks, preferring a contiguous run at
// goal (pass <0 for no preference). The result may be fragmented; it
// is ordered and non-overlapping. Claimed bits are set immediately.
func (fs *FS) allocBlocks(count, goal int64) ([]Extent, error) {
	if count <= 0 {
		return nil, nil
	}
	var out []Extent
	remaining := count
	claim := func(start, n int64) {
		fs.setRun(start, n)
		out = append(out, Extent{Start: uint32(start), Count: uint32(n)})
		remaining -= n
	}

	// Try the goal first for the whole remainder.
	if goal >= fs.sb.DataStart && goal < fs.sb.BlockCount && !fs.testBit(goal) {
		if n := fs.runAt(goal, remaining); n > 0 {
			claim(goal, n)
		}
	}
	// Then scan from the rotor, taking runs as found.
	scanned := int64(0)
	pos := fs.allocRotor
	dataSpan := fs.sb.BlockCount - fs.sb.DataStart
	for remaining > 0 && scanned < dataSpan {
		if pos >= fs.sb.BlockCount {
			pos = fs.sb.DataStart
		}
		if pos%8 == 0 && pos+8 <= fs.sb.BlockCount && fs.bitmap[pos/8] == 0xff {
			// Whole byte in use: skip eight blocks at once.
			pos += 8
			scanned += 8
			continue
		}
		if fs.testBit(pos) {
			pos++
			scanned++
			continue
		}
		n := fs.runAt(pos, remaining)
		claim(pos, n)
		pos += n
		scanned += n
	}
	fs.allocRotor = pos
	if remaining > 0 {
		// Roll back partial claims.
		for _, e := range out {
			fs.clearRun(int64(e.Start), int64(e.Count))
		}
		return nil, ErrNoSpace
	}
	return out, nil
}

// allocMetaBlock claims a single block for metadata (extent chains).
func (fs *FS) allocMetaBlock() (int64, error) {
	ext, err := fs.allocBlocks(1, -1)
	if err != nil {
		return 0, err
	}
	return int64(ext[0].Start), nil
}

// deferFree queues extents for release at the next commit.
func (fs *FS) deferFree(exts []Extent) {
	fs.pendingFree = append(fs.pendingFree, exts...)
}

// applyPendingFree clears the bitmap bits of deferred frees. Called
// by Commit after the journal transaction is durable.
func (fs *FS) applyPendingFree() {
	for _, e := range fs.pendingFree {
		for i := int64(0); i < int64(e.Count); i++ {
			fs.clearBit(int64(e.Start) + i)
		}
	}
	fs.pendingFree = fs.pendingFree[:0]
}
