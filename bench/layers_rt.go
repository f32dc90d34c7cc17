package main

import (
	"fmt"
	"runtime"
	"time"

	"knemesis/internal/rt"
	"knemesis/internal/units"
)

// rtPingPong runs trips blocking round trips of size bytes between two
// ranks of a fresh world, with the rt workloads' buffer layout (rank 0 sends
// from one buffer and receives into another, rank 1 echoes). It returns the
// wall time rank 0 saw for them (after warm untimed round trips), the world
// for its counters, and the process-wide mallocs during the timed part.
func rtPingPong(cfg rt.Config, size, warm, trips int) (secs float64, w *rt.World, mallocs uint64, err error) {
	w = rt.NewWorld(2, cfg)
	err = w.Run(func(rk *rt.Rank) {
		if rk.ID() == 1 {
			echo := make([]byte, size)
			for i := 0; i < warm+trips; i++ {
				rk.Recv(0, 0, echo)
				rk.Send(0, 0, echo)
			}
			return
		}
		send, recv := make([]byte, size), make([]byte, size)
		for i := 0; i < warm; i++ {
			rk.Send(1, 0, send)
			rk.Recv(1, 0, recv)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			rk.Send(1, 0, send)
			rk.Recv(1, 0, recv)
		}
		secs = time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
	})
	return secs, w, mallocs, err
}

// rtUnexpected makes every data message arrive before its receive is
// posted: rank 1 first waits for a token sent after the data, so the data
// message is parked on the unexpected queue and matched from there.
func rtUnexpected(iters int) (float64, error) {
	const dataTag, tokenTag, ackTag = 1, 2, 3
	var secs float64
	err := rt.NewWorld(2, rt.Config{}).Run(func(rk *rt.Rank) {
		data, token := make([]byte, 64), make([]byte, 8)
		if rk.ID() == 1 {
			for i := 0; i < iters; i++ {
				rk.Recv(0, tokenTag, token)
				rk.Recv(0, dataTag, data)
				rk.Send(0, ackTag, token)
			}
			return
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			rk.Send(1, dataTag, data)
			rk.Send(1, tokenTag, token)
			rk.Recv(1, ackTag, token)
		}
		secs = time.Since(t0).Seconds()
	})
	return secs * 1e9 / float64(3*iters), err
}

// memmoveGiBps is plain single-threaded copy() between two 4 MiB buffers.
func memmoveGiBps() float64 {
	a, b := make([]byte, rtLargeBytes), make([]byte, rtLargeBytes)
	const copies = 32
	copy(b, a) // fault the pages in
	t0 := time.Now()
	for i := 0; i < copies; i++ {
		copy(b, a)
		a, b = b, a
	}
	return float64(copies) * float64(rtLargeBytes) / float64(units.GiB) / time.Since(t0).Seconds()
}

// rtLayers measures the real runtime's message paths one at a time.
func rtLayers(tr *tracer, parent int, out map[string]float64) error {
	probeSpan := func(name string, fn func() error) error { return tr.span(name, parent, fn) }

	err := probeSpan("rt fastbox 64B", func() error {
		const trips = 20_000
		secs, w, mallocs, err := rtPingPong(rt.Config{}, rtSmallBytes, 200, trips)
		if err != nil {
			return err
		}
		out["rt.fastbox_ns_per_msg"] = secs * 1e9 / (2 * trips)
		out["rt.fastbox_hit_ratio"] = float64(w.FastboxMsgs.Load()) / float64(w.EagerMsgs.Load())
		out["rt.allocs_per_msg"] = float64(mallocs) / (2 * trips)
		return nil
	})
	if err != nil {
		return err
	}
	err = probeSpan("rt queue 4KiB", func() error {
		const trips = 10_000
		secs, _, _, err := rtPingPong(rt.Config{}, int(4*units.KiB), 200, trips)
		out["rt.queue_ns_per_msg"] = secs * 1e9 / (2 * trips)
		return err
	})
	if err != nil {
		return err
	}
	err = probeSpan("rt unexpected 64B", func() (err error) {
		out["rt.unexpected_ns_per_msg"], err = rtUnexpected(8_000)
		return err
	})
	if err != nil {
		return err
	}

	probeSpan("memmove 4MiB", func() error {
		out["host.memmove_gibps"] = memmoveGiBps()
		return nil
	})
	for _, mode := range []rt.LargeMode{rt.Eager, rt.SingleCopy, rt.Offload} {
		mode := mode
		err = probeSpan("rt rendezvous 4MiB "+mode.String(), func() error {
			const trips = 16
			secs, w, _, err := rtPingPong(rt.Config{Large: mode}, rtLargeBytes, 2, trips)
			if err != nil {
				return err
			}
			out["rt.rndv_us_per_msg."+mode.String()] = secs * 1e6 / (2 * trips)
			if mode == rt.SingleCopy {
				gibps := 2 * trips * float64(rtLargeBytes) / float64(units.GiB) / secs
				out["rt.copy_efficiency"] = gibps / out["host.memmove_gibps"]
				out["rt.rndv_msgs"] = float64(w.RndvMsgs.Load())
				out["rt.bytes_moved"] = float64(w.BytesMoved.Load())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return probeSpan("rt rendezvous 256KiB single-copy", func() error {
		const trips = 200
		secs, _, _, err := rtPingPong(rt.Config{}, int(256*units.KiB), 4, trips)
		out[fmt.Sprintf("rt.rndv_us_per_msg.%s.256KiB", rt.SingleCopy)] = secs * 1e6 / (2 * trips)
		return err
	})
}
