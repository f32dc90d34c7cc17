// Package kernel models the Linux substrate the paper's mechanisms rely on:
// user/kernel crossings, page pinning (get_user_pages), kernel pipes with
// the vmsplice/writev/readv data paths, and kernel worker threads.
//
// Costs follow the paper: a syscall is ~100 ns (§3.1); vmsplice pays extra
// per-call VFS overhead (§4.2); the pipe holds PIPE_BUFFERS=16 pages, so a
// single vmsplice or readv moves at most 64 KiB (§3.1).
package kernel

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// OS is the simulated operating system for one machine.
type OS struct {
	M *hw.Machine

	// KernelSpace backs kernel-owned pages (pipe buffers). It is a shared
	// space: the kernel may touch it on behalf of any process.
	KernelSpace *mem.Space

	// Stats
	Syscalls    int64
	PagesPinned int64
	CMACalls    int64
	CMABytes    int64
}

// New creates the OS layer for machine m.
func New(m *hw.Machine) *OS {
	return &OS{M: m, KernelSpace: m.Mem.NewSharedSpace("kernel")}
}

// SyscallEnter charges one user/kernel crossing to the core.
func (os *OS) SyscallEnter(p *sim.Proc, core topo.CoreID) {
	os.Syscalls++
	os.M.LocalDelay(p, core, os.M.Params().SyscallCost)
}

// Pin charges get_user_pages for every page of the vector and returns the
// pinned page count. Pinning is required before the kernel or DMA hardware
// may address user memory (§3.3).
func (os *OS) Pin(p *sim.Proc, core topo.CoreID, vec mem.IOVec) int64 {
	var pages int64
	for _, r := range vec {
		pages += r.Buf.Slice(r.Off, r.Len).Pages()
	}
	os.PagesPinned += pages
	os.M.LocalDelay(p, core, os.M.Params().PinPerPage*sim.Time(pages))
	return pages
}

// Unpin releases pages pinned earlier.
func (os *OS) Unpin(p *sim.Proc, core topo.CoreID, pages int64) {
	os.M.LocalDelay(p, core, os.M.Params().UnpinPerPage*sim.Time(pages))
}

// KThread is a kernel worker thread bound to one core, fed through a job
// mailbox. The thread's CPU consumption contends with the user process on
// the same core (hw processor sharing), reproducing the paper's observation
// that the non-I/OAT asynchronous mode "significantly reduces the overall
// throughput since the user-level process competes with the kernel thread
// for the CPU" (§4.3).
type KThread struct {
	Core topo.CoreID
	jobs *sim.Mailbox[func(*sim.Proc)]
}

// SpawnKThread creates a worker bound to core.
func (os *OS) SpawnKThread(core topo.CoreID, name string) *KThread {
	kt := &KThread{
		Core: core,
		jobs: sim.NewMailbox[func(*sim.Proc)](os.M.Eng, name),
	}
	os.M.Eng.SpawnDaemon(fmt.Sprintf("kthread/%s", name), func(p *sim.Proc) {
		for {
			job := kt.jobs.Get(p)
			if job == nil {
				return
			}
			job(p)
		}
	})
	return kt
}

// Submit queues a job on the worker; the submitter pays the wakeup cost.
func (kt *KThread) Submit(p *sim.Proc, submitCore topo.CoreID, os *OS, job func(*sim.Proc)) {
	os.M.LocalDelay(p, submitCore, os.M.Params().KThreadSpawnCost)
	kt.jobs.Put(job)
}
