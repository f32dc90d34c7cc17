package kernel

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// cmaChunkBytes is the kernel copy-loop granularity of a CMA transfer,
// matching the page-batched copy loop of the real implementation.
const cmaChunkBytes = 64 * 1024

// ProcessVMReadv models the Linux Cross Memory Attach syscall
// (process_vm_readv): the calling process reads the remote process's memory
// with one kernel-mediated copy and no intermediate buffering. It is the
// mainline successor of KNEM's receive command — same single-copy data
// path, but with no module to load, no cookie registry and no ioctl
// dispatch: the remote iovec is named directly in the call.
//
// Costs: one syscall crossing, get_user_pages pinning of the remote pages
// (the kernel must hold them while it copies), the chunked kernel copy
// itself, and the unpin. The caller's core performs the copy, so the cache
// effects match KNEM's synchronous mode: the destination lands hot in the
// receiver's cache while the remote source stays clean.
func (os *OS) ProcessVMReadv(p *sim.Proc, core topo.CoreID, local, remote mem.IOVec) int64 {
	if err := local.Validate(); err != nil {
		panic(err)
	}
	if err := remote.Validate(); err != nil {
		panic(err)
	}
	if local.TotalLen() != remote.TotalLen() {
		panic(fmt.Sprintf("kernel: process_vm_readv length mismatch %d != %d",
			local.TotalLen(), remote.TotalLen()))
	}
	os.SyscallEnter(p, core)
	pages := os.Pin(p, core, remote)
	var moved int64
	mem.OverlayEach(local, remote, cmaChunkBytes, func(pair mem.RegionPair) {
		os.M.CopyRange(p, core, pair.Dst, pair.Src, hw.CopyOpts{Kernel: true})
		moved += pair.Src.Len
	})
	os.Unpin(p, core, pages)
	os.CMACalls++
	os.CMABytes += moved
	return moved
}
