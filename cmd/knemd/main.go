// Command knemd is the always-on experiment service: it accepts canonical
// JobSpec envelopes (see internal/serve/api) over HTTP/JSON, schedules
// them through the class-aware admission controller — sim jobs fan out
// across a bounded worker pool, rt jobs run one at a time (no core is
// reserved; sim jobs may run beside one) — answers a repeated submission
// with the run that already produced its artefact, and persists typed JSON
// artefacts with a long-pollable progress ledger, which is also the result
// cache: it holds every run for the life of the process.
//
//	knemd -addr 127.0.0.1:8077 -store /var/lib/knemd
//	curl -d '{"kind":"comm","bench":"pingpong"}' http://127.0.0.1:8077/v1/jobs
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"knemesis/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "serve address")
		storeRoot  = flag.String("store", "", "ledger directory holding wal.jsonl, the whole store (empty = in memory only)")
		simWorkers = flag.Int("sim-workers", 0, "concurrently running sim jobs (0 = daemon default)")
		queueCap   = flag.Int("queue-cap", 0, "backlog cap before submissions are shed (429) (0 = daemon default)")
		deadline   = flag.Duration("deadline", 0, "default per-job deadline (0 = daemon default)")
	)
	flag.Parse()

	cfg := serve.Config{
		SimWorkers: *simWorkers,
		QueueCap:   *queueCap,
		Deadline:   *deadline,
		StoreRoot:  *storeRoot,
	}
	if err := serveForever(cfg, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		os.Exit(1)
	}
}

// serveForever runs the daemon until SIGINT/SIGTERM, then drains: no new
// submissions, queued jobs cancelled, running jobs finished (cut after a
// 30s grace period), then closes the store.
func serveForever(cfg serve.Config, addr string) error {
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Close()
		return err
	}
	srv := &http.Server{Handler: serve.Handler(d)}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("knemd: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("knemd: %v: draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	shutdownErr := srv.Shutdown(ctx)
	closeErr := d.Close()
	st := d.Stats()
	fmt.Printf("knemd: drained: %d done, %d failed, %d cancelled, %d shed\n",
		st.Done, st.Failed, st.Cancelled, st.Shed)
	return cmp.Or(shutdownErr, closeErr)
}
