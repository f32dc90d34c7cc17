package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/store"
)

// knemd is an in-process daemon with its ledger and artefacts in a fresh
// directory on the real disk, behind its real HTTP surface on loopback.
type knemd struct {
	d    *serve.Daemon
	srv  *http.Server
	url  string
	root string
}

// knemdQueueCap is raised from the default 64 so that nothing sheds: the
// workloads measure service time, and a closed loop of two clients never
// queues more than two jobs anyway.
const knemdQueueCap = 1024

func startKnemd(dir string) (*knemd, error) {
	root, err := os.MkdirTemp(dir, "store-*")
	if err != nil {
		return nil, err
	}
	d, err := serve.NewDaemon(serve.Config{StoreRoot: root, QueueCap: knemdQueueCap})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	k := &knemd{d: d, srv: &http.Server{Handler: serve.Handler(d)}, url: "http://" + ln.Addr().String(), root: root}
	go k.srv.Serve(ln)
	return k, nil
}

func (k *knemd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	k.d.Drain(ctx)
	k.srv.Close()
	k.d.Close()
	os.RemoveAll(k.root)
}

// knemdClient is one closed-loop client with its own connection.
type knemdClient struct {
	http *http.Client
	url  string
}

func newKnemdClient(url string) *knemdClient {
	return &knemdClient{http: &http.Client{Transport: &http.Transport{}}, url: url}
}

func (c *knemdClient) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(buf))
	}
	return buf, nil
}

func (c *knemdClient) submit(spec []byte) (api.SubmitResult, error) {
	var sr api.SubmitResult
	buf, err := c.do("POST", "/v1/jobs", spec)
	if err != nil {
		return sr, err
	}
	return sr, json.Unmarshal(buf, &sr)
}

// await long-polls the job's events until it reaches a terminal state.
func (c *knemdClient) await(id string) (store.Record, error) {
	var rec store.Record
	for {
		buf, err := c.do("GET", fmt.Sprintf("/v1/jobs/%s/events?since=%d&wait=30", id, rec.Version), nil)
		if err != nil {
			return rec, err
		}
		if err := json.Unmarshal(buf, &rec); err != nil {
			return rec, err
		}
		if rec.State.Terminal() {
			return rec, nil
		}
	}
}

func (c *knemdClient) result(id string) ([]byte, error) {
	return c.do("GET", "/v1/jobs/"+id+"/result", nil)
}

// coldSpec is the k-th unique job: a 2-rank sim pingpong whose one size no
// other job shares, so its cache key is new.
func coldSpec(k int) []byte {
	return []byte(fmt.Sprintf(`{"kind":"comm","bench":"pingpong","sizes":[%d]}`, 65536+64*k))
}

// knemdJobNumbers is the seed's shuffle of job numbers 0..n-1: the seed
// changes only which unique spec is submitted when.
func knemdJobNumbers(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// directResult runs a spec without the daemon: what its result must equal.
func directResult(spec []byte) ([]byte, error) {
	s, err := api.Decode(spec)
	if err != nil {
		return nil, err
	}
	c, err := s.Canonicalize()
	if err != nil {
		return nil, err
	}
	files, err := serve.Execute(context.Background(), c, nil)
	if err != nil {
		return nil, err
	}
	return files["result.json"], nil
}

const (
	knemdClients = 2
	// checkEvery is how often a cold op's result is recomputed directly
	// (outside the timed part of the round) and compared byte for byte.
	checkEvery = 50
	warmSpecs  = 16
)

type knemdInstance struct {
	k       *knemd
	ops     int
	warm    bool
	clients [knemdClients]*knemdClient
	// Cold: ks is a seed-shuffled permutation of the run's job numbers, so
	// every round draws the same spread of message sizes; next walks it.
	ks   []int
	next int
	// Warm: the specs run cold during set-up, what each must return, and
	// the seed's draw of which one each op resubmits.
	specs  [][]byte
	expect [][]byte
	draw   *rand.Rand
	// Daemon counters and WAL lines at the start of the first timed round.
	base    api.Stats
	baseWAL float64
}

func newKnemdInstance(env *runEnv, ops int, warm bool) (*knemdInstance, error) {
	k, err := startKnemd(env.dir)
	if err != nil {
		return nil, err
	}
	in := &knemdInstance{k: k, ops: ops, warm: warm}
	for i := range in.clients {
		in.clients[i] = newKnemdClient(k.url)
	}
	if !warm {
		in.ks = knemdJobNumbers(env.seed, (env.rounds+1)*ops)
		return in, nil
	}
	in.draw = rand.New(rand.NewSource(int64(env.seed)))
	for _, kk := range knemdJobNumbers(env.seed, 4096)[:warmSpecs] {
		spec := coldSpec(kk)
		want, err := directResult(spec)
		if err == nil {
			var got []byte
			if got, err = in.coldOp(in.clients[0], spec, nil, 0); err == nil && !bytes.Equal(got, want) {
				err = errResultDiffers
			}
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("filling the result cache: %w", err)
		}
		in.specs = append(in.specs, spec)
		in.expect = append(in.expect, want)
	}
	return in, nil
}

var errResultDiffers = errors.New("result differs from a direct serve.Execute of the same spec")

// coldOp is a job's whole life as a client sees it: submit, long-poll to a
// terminal state, fetch the result (returned for the caller to check).
func (in *knemdInstance) coldOp(c *knemdClient, spec []byte, tr *tracer, op int) ([]byte, error) {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	s := tr.begin("submit", root, op)
	sr, err := c.submit(spec)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if sr.Cached {
		return nil, fmt.Errorf("%s: a unique spec was answered from the cache", sr.ID)
	}
	s = tr.begin("await", root, op)
	rec, err := c.await(sr.ID)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if rec.State != store.Done {
		return nil, fmt.Errorf("%s: state %s: %s", sr.ID, rec.State, rec.Error)
	}
	s = tr.begin("result", root, op)
	got, err := c.result(sr.ID)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The daemon's stages, rebuilt from the ledger's timestamps.
		ts := rec.Transitions
		for i := 0; i+1 < len(ts); i++ {
			tr.add("stage:"+string(ts[i].State), root, op, ts[i].At, ts[i+1].At)
		}
	}
	return got, nil
}

// warmOp resubmits a spec that already ran: the submit reply must say
// cached and done, and the result must be the original's bytes.
func (in *knemdInstance) warmOp(c *knemdClient, i int, tr *tracer, op int) error {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	s := tr.begin("submit", root, op)
	sr, err := c.submit(in.specs[i])
	tr.end(s)
	if err != nil {
		return err
	}
	if !sr.Cached || sr.State != string(store.Done) {
		return fmt.Errorf("%s: resubmission not answered from the cache (state %s)", sr.ID, sr.State)
	}
	s = tr.begin("result", root, op)
	got, err := c.result(sr.ID)
	tr.end(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, in.expect[i]) {
		return fmt.Errorf("%s: cached %w", sr.ID, errResultDiffers)
	}
	return nil
}

func (in *knemdInstance) round(r int, lat []float64, tr *tracer) (float64, int) {
	if r == 0 {
		in.base = in.k.d.Stats()
		in.baseWAL, _ = walLines(in.k.root) // an unreadable WAL shows as a wrong entry count
	}
	// The round's inputs are fixed before the clock starts.
	specs := make([][]byte, in.ops)
	picks := make([]int, in.ops)
	for i := range specs {
		if in.warm {
			picks[i] = in.draw.Intn(len(in.specs))
		} else {
			specs[i] = coldSpec(in.ks[in.next])
			in.next++
		}
	}
	errs := make([]error, in.ops)
	results := make([][]byte, in.ops)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < in.ops; i += knemdClients {
				t0 := time.Now()
				if in.warm {
					errs[i] = in.warmOp(in.clients[c], picks[i], tr, i+1)
				} else {
					results[i], errs[i] = in.coldOp(in.clients[c], specs[i], tr, i+1)
				}
				lat[i] = time.Since(t0).Seconds()
			}
		}(c)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()

	failed := 0
	for i, err := range errs {
		if err == nil && !in.warm && i%checkEvery == 0 {
			// Recomputed outside the timed part of the round.
			if want, derr := directResult(specs[i]); derr != nil {
				err = derr
			} else if !bytes.Equal(results[i], want) {
				err = errResultDiffers
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: round %d op %d failed: %v\n", r, i, err)
		}
	}
	return secs, failed
}

// layerMetrics are the daemon's own counters over the timed rounds: the
// workload is valid if nothing was shed and the cache hit exactly when it
// should (never cold, always warm).
func (in *knemdInstance) layerMetrics() map[string]float64 {
	st := in.k.d.Stats()
	hits, misses := st.CacheHits-in.base.CacheHits, st.CacheMisses-in.base.CacheMisses
	jobs := st.Done - in.base.Done
	wal, _ := walLines(in.k.root) // as above
	return map[string]float64{
		"serve.cache_hit_ratio":           ratio(hits, hits+misses),
		"serve.shed_ratio":                ratio(st.Shed-in.base.Shed, st.Submitted-in.base.Submitted),
		"serve.store.wal_entries_per_job": (wal - in.baseWAL) / float64(max(jobs, 1)),
	}
}

func (in *knemdInstance) close() {
	for _, c := range in.clients {
		c.http.CloseIdleConnections()
	}
	in.k.stop()
}

// newKnemdCold is a job's whole life: decode, canonicalise, hash, queue,
// admit, engine run, artefact fsyncs, four WAL fsyncs. Engine and store
// dominate.
func newKnemdCold() *workload {
	w := &workload{name: "knemd-cold", ops: 100, rate: 2.4, newProbe: newKnemdColdProbe,
		why: "2 closed-loop HTTP clients submit unique sim jobs to an in-process daemon on the real disk: a job's whole life, engine run, artefact and WAL fsyncs included"}
	w.setup = func(env *runEnv) (instance, error) { return newKnemdInstance(env, w.ops, false) }
	return w
}

// newKnemdWarm uses the same serve layers the other way: no engine, no
// artefact write, two WAL entries, so the fixed per-job overhead (HTTP,
// canonicalise + hash, LRU, WAL) dominates. Anything that speeds cold jobs
// by taxing every job shows here.
func newKnemdWarm() *workload {
	w := &workload{name: "knemd-warm", ops: 200, rate: 4.0, newProbe: newKnemdWarmProbe,
		why: "the same clients resubmit 16 specs that already ran: answered from the result cache, so fixed per-job overhead (HTTP, canonicalise + hash, LRU, WAL) dominates and the engine is bypassed"}
	w.setup = func(env *runEnv) (instance, error) { return newKnemdInstance(env, w.ops, true) }
	return w
}
