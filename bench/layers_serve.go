package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/cache"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
)

// p50us is the median of durations given in seconds, in µs.
func p50us(secs []float64) float64 { return median(secs) * 1e6 }

// secsOf times one call.
func secsOf(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// timeEach times n calls of fn one by one, in seconds.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}

// layerJobs is how many cold jobs the serve layer probes run.
const layerJobs = 30

// walLines counts the entries of the ledger's write-ahead log.
func walLines(root string) (float64, error) {
	buf, err := os.ReadFile(filepath.Join(root, "wal.jsonl"))
	if err != nil {
		return 0, err
	}
	return float64(bytes.Count(buf, []byte{'\n'})), nil
}

// serveLayers measures the daemon's layers one at a time with the knemd
// workloads' own specs, then runs a few cold jobs through a fresh daemon
// with a single client to split a job's life into its stages.
func serveLayers(dir string, tr *tracer, parent int, out map[string]float64) error {
	probeSpan := func(name string, fn func() error) error { return tr.span(name, parent, fn) }
	specs := make([]api.Spec, layerJobs)

	err := probeSpan("api.Decode+Canonicalize+CacheKey", func() error {
		const reps = 2000
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			s, err := api.Decode(coldSpec(i % layerJobs))
			if err == nil {
				s, err = s.Canonicalize()
			}
			if err == nil {
				_, err = s.CacheKey()
			}
			if err != nil {
				return err
			}
			specs[i%layerJobs] = s
		}
		out["serve.api.canon_key_us"] = time.Since(t0).Seconds() * 1e6 / reps
		return nil
	})
	if err != nil {
		return err
	}

	probeSpan("cache.LRU.Get", func() error {
		const entries, gets = 256, 200_000
		c := cache.New(entries)
		keys := make([]string, entries)
		for i := range keys {
			keys[i] = fmt.Sprintf("%064x", i)
			c.Put(keys[i], "job")
		}
		t0 := time.Now()
		for i := 0; i < gets; i++ {
			c.Get(keys[i%entries])
		}
		out["serve.cache.get_ns"] = float64(time.Since(t0).Nanoseconds()) / gets
		return nil
	})

	files := make([]map[string][]byte, layerJobs)
	err = probeSpan("serve.Execute", func() error {
		secs, err := timeEach(layerJobs, func(i int) (err error) {
			files[i], err = serve.Execute(context.Background(), specs[i], nil)
			return err
		})
		out["serve.execute_us_p50"] = p50us(secs)
		return err
	})
	if err != nil {
		return err
	}

	err = probeSpan("store: WAL appends + PutArtefact", func() error {
		root, err := os.MkdirTemp(dir, "layer-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
		st, err := store.New(root)
		if err != nil {
			return err
		}
		defer st.Close()
		var appends, puts []float64
		for i := 0; i < layerJobs; i++ {
			id := fmt.Sprintf("job-%06d", i+1)
			appends = append(appends,
				secsOf(func() { st.Create(id, "key", api.ClassSim, specs[i].CanonicalJSON(), store.Queued) }),
				secsOf(func() { st.Advance(id, store.Admitted, "") }),
				secsOf(func() { st.Advance(id, store.Running, "") }))
			puts = append(puts, secsOf(func() { err = st.PutArtefact(id, files[i]) }))
			if err != nil {
				return err
			}
			appends = append(appends, secsOf(func() { st.Finish(id, store.Done, "", id, "") }))
		}
		out["serve.store.put_artefact_us_p50"] = p50us(puts)
		out["serve.store.wal_append_us_p50"] = p50us(appends)
		return nil
	})
	if err != nil {
		return err
	}

	probeSpan("scheduler.Submit -> Run", func() error {
		const jobs = 2000
		s := scheduler.New(scheduler.Config{})
		delays := make([]float64, 0, jobs)
		done := make(chan struct{})
		for i := 0; i < jobs; i++ {
			t0 := time.Now()
			err := s.Submit(scheduler.Job{ID: fmt.Sprintf("j%d", i), Class: scheduler.ClassSim,
				Run: func(context.Context) error {
					delays = append(delays, time.Since(t0).Seconds())
					done <- struct{}{}
					return nil
				}})
			if err != nil {
				return err
			}
			<-done
		}
		s.Drain(context.Background())
		out["serve.scheduler.dispatch_us"] = p50us(delays)
		return nil
	})

	err = probeSpan("host fsync 200B", func() error {
		f, err := os.OpenFile(filepath.Join(dir, "fsync.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		line := bytes.Repeat([]byte("f"), 200)
		secs, err := timeEach(40, func(int) error {
			if _, err := f.Write(line); err != nil {
				return err
			}
			return f.Sync()
		})
		out["host.fsync_us_p50"] = p50us(secs)
		return err
	})
	if err != nil {
		return err
	}

	return probeSpan("daemon: cold jobs, one client", func() error {
		k, err := startKnemd(dir)
		if err != nil {
			return err
		}
		defer k.stop()
		c := newKnemdClient(k.url)
		defer c.http.CloseIdleConnections()
		var httpOver, queued, admitted, running []float64
		for i := 0; i < layerJobs; i++ {
			t0 := time.Now()
			sr, err := c.submit(coldSpec(i))
			if err != nil {
				return err
			}
			rec, err := c.await(sr.ID)
			if err != nil {
				return err
			}
			client := time.Since(t0).Seconds()
			ts := rec.Transitions
			if rec.State != store.Done || len(ts) != 4 {
				return fmt.Errorf("%s: state %s after %d transitions", sr.ID, rec.State, len(ts))
			}
			httpOver = append(httpOver, client-ts[3].At.Sub(ts[0].At).Seconds())
			queued = append(queued, ts[1].At.Sub(ts[0].At).Seconds())
			admitted = append(admitted, ts[2].At.Sub(ts[1].At).Seconds())
			running = append(running, ts[3].At.Sub(ts[2].At).Seconds())
		}
		out["serve.http_us_p50"] = p50us(httpOver)
		out["serve.stage.queued_us_p50"] = p50us(queued)
		out["serve.stage.admitted_us_p50"] = p50us(admitted)
		out["serve.stage.running_us_p50"] = p50us(running)
		st := k.d.Stats()
		out["serve.cache_hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
		out["serve.shed_ratio"] = ratio(st.Shed, st.Submitted)
		lines, err := walLines(k.root)
		out["serve.store.wal_entries_per_job"] = lines / layerJobs
		return err
	})
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
