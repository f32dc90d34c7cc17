package kernel

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// pipeSeg is one queued chunk of pipe data. For vmsplice the region aliases
// the sender's (pinned) user pages; for writev it aliases one kernel page
// slot that already holds a copy of the data.
type pipeSeg struct {
	data  mem.Region
	pages int64
	slot  int // kernel page slot index, or -1 for spliced user pages
}

// Pipe is a Unix pipe with the kernel's page-slot accounting: it holds at
// most PIPE_BUFFERS pages (default 16, i.e. 64 KiB of 4 KiB pages), which is
// why a vmsplice-based transfer proceeds in 64 KiB windows.
type Pipe struct {
	os       *OS
	capPages int64

	segs      []pipeSeg
	usedPages int64

	readable *sim.Cond
	writable *sim.Cond

	// Kernel page slots for Writev data (allocated lazily, reused), one
	// buffer per PIPE_BUFFERS slot exactly as the Linux pipe implements.
	pagePool  []*mem.Buffer
	freeSlots []int

	// Stats
	BytesSpliced int64
	BytesWritten int64
	BytesRead    int64
}

// NewPipe creates a pipe with the machine's configured PIPE_BUFFERS capacity.
func (os *OS) NewPipe(name string) *Pipe {
	return &Pipe{
		os:       os,
		capPages: int64(os.M.Params().PipePages),
		readable: sim.NewCond(os.M.Eng, "pipe-readable "+name),
		writable: sim.NewCond(os.M.Eng, "pipe-writable "+name),
	}
}

func pagesFor(n, pageBytes int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + pageBytes - 1) / pageBytes
}

// Vmsplice attaches the sender's user pages to the pipe without copying.
// It blocks until at least one page slot is free, attaches as much of vec as
// fits, and returns the attached byte count (the caller loops, exactly like
// the LMT backend does). Costs: one syscall + VFS overhead + pinning of the
// attached pages.
func (pp *Pipe) Vmsplice(p *sim.Proc, core topo.CoreID, vec mem.IOVec) int64 {
	if err := vec.Validate(); err != nil {
		panic(err)
	}
	par := pp.os.M.Params()
	pp.os.SyscallEnter(p, core)
	pp.os.M.LocalDelay(p, core, par.VFSOverhead)

	pp.blockUntil(p, pp.writable, func() bool { return pp.usedPages < pp.capPages })

	var attached int64
	var attachedVec mem.IOVec
	free := pp.capPages - pp.usedPages
	for _, r := range vec {
		if free <= 0 {
			break
		}
		n := r.Len
		maxBytes := free * par.PageBytes
		if n > maxBytes {
			n = maxBytes
		}
		if n <= 0 {
			continue
		}
		seg := pipeSeg{
			data:  mem.Region{Buf: r.Buf, Off: r.Off, Len: n},
			pages: pagesFor(n, par.PageBytes),
			slot:  -1,
		}
		attachedVec = append(attachedVec, seg.data)
		pp.segs = append(pp.segs, seg)
		pp.usedPages += seg.pages
		free -= seg.pages
		attached += n
	}
	pp.os.Pin(p, core, attachedVec)
	pp.BytesSpliced += attached
	if attached > 0 {
		pp.readable.Broadcast()
	}
	return attached
}

// Writev copies data from user space into kernel pipe pages (the two-copy
// baseline the paper compares against in Figure 3). Blocks until at least
// one page is free; copies as much as fits; returns bytes written.
func (pp *Pipe) Writev(p *sim.Proc, core topo.CoreID, vec mem.IOVec) int64 {
	if err := vec.Validate(); err != nil {
		panic(err)
	}
	par := pp.os.M.Params()
	pp.os.SyscallEnter(p, core)
	pp.os.M.LocalDelay(p, core, par.VFSOverhead)

	pp.blockUntil(p, pp.writable, func() bool { return pp.usedPages < pp.capPages })
	if pp.pagePool == nil {
		for i := int64(0); i < pp.capPages; i++ {
			pp.pagePool = append(pp.pagePool, pp.os.KernelSpace.Alloc(par.PageBytes))
			pp.freeSlots = append(pp.freeSlots, int(i))
		}
	}

	// Fill one free kernel page slot per copied page, exactly like the
	// Linux pipe's per-page buffers.
	var written int64
	for _, r := range vec {
		off := r.Off
		remain := r.Len
		for remain > 0 && len(pp.freeSlots) > 0 {
			slot := pp.freeSlots[0]
			pp.freeSlots = popFront(pp.freeSlots)
			n := par.PageBytes
			if n > remain {
				n = remain
			}
			kreg := mem.Region{Buf: pp.pagePool[slot], Off: 0, Len: n}
			pp.os.M.CopyRange(p, core, kreg, mem.Region{Buf: r.Buf, Off: off, Len: n},
				hw.CopyOpts{Kernel: true})
			pp.segs = append(pp.segs, pipeSeg{data: kreg, pages: 1, slot: slot})
			pp.usedPages++
			off += n
			remain -= n
			written += n
		}
		if len(pp.freeSlots) == 0 {
			break
		}
	}
	pp.BytesWritten += written
	if written > 0 {
		pp.readable.Broadcast()
	}
	return written
}

// Readv copies queued pipe data into dst, blocking until at least one byte
// is available. It copies at most dst.Len bytes and returns the count.
// Freed page slots wake blocked writers.
func (pp *Pipe) Readv(p *sim.Proc, core topo.CoreID, dst mem.Region) int64 {
	if dst.Len <= 0 {
		panic(fmt.Sprintf("kernel: Readv with %d-byte destination", dst.Len))
	}
	par := pp.os.M.Params()
	pp.os.SyscallEnter(p, core)
	pp.os.M.LocalDelay(p, core, par.VFSOverhead)

	pp.blockUntil(p, pp.readable, func() bool { return len(pp.segs) > 0 })

	var read int64
	for read < dst.Len && len(pp.segs) > 0 {
		// Copy the head segment descriptor by value: CopyRange blocks,
		// and a concurrently appending writer may reallocate pp.segs.
		// The pipe supports a single reader, so pp.segs[0] itself is
		// stable across the block and is re-taken by index afterwards.
		cur := pp.segs[0]
		n := cur.data.Len
		if n > dst.Len-read {
			n = dst.Len - read
		}
		pp.os.M.CopyRange(p, core,
			mem.Region{Buf: dst.Buf, Off: dst.Off + read, Len: n},
			mem.Region{Buf: cur.data.Buf, Off: cur.data.Off, Len: n},
			hw.CopyOpts{Kernel: true})
		read += n
		seg := &pp.segs[0]
		if n == seg.data.Len {
			pp.usedPages -= seg.pages
			if seg.slot >= 0 {
				pp.freeSlots = append(pp.freeSlots, seg.slot)
			}
			pp.segs = popFront(pp.segs)
		} else {
			// Partial read: shrink the segment; slot accounting keeps
			// whole pages until the segment fully drains.
			remaining := seg.data.Len - n
			freedPages := seg.pages - pagesFor(remaining, par.PageBytes)
			seg.data = mem.Region{Buf: seg.data.Buf, Off: seg.data.Off + n, Len: remaining}
			seg.pages -= freedPages
			pp.usedPages -= freedPages
		}
	}
	pp.BytesRead += read
	pp.writable.Broadcast()
	return read
}

// popFront removes a FIFO's head by moving the rest down: the appends at
// its tail then reuse the room instead of re-growing a slice whose start
// keeps moving. The FIFOs hold at most PIPE_BUFFERS entries.
func popFront[T any](s []T) []T {
	return s[:copy(s, s[1:])]
}

// blockUntil waits for ok() on cond; if the process actually blocked, it
// pays the scheduler wakeup latency — the pipe synchronization overhead the
// paper observes for vmsplice across dies (§4.2).
func (pp *Pipe) blockUntil(p *sim.Proc, cond *sim.Cond, ok func() bool) {
	blocked := false
	for !ok() {
		cond.Wait(p)
		blocked = true
	}
	if blocked {
		p.Sleep(pp.os.M.Params().SchedWakeLatency)
	}
}
