package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knemesis/internal/experiments"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/cache"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
)

// Recovery policies for jobs a crash caught mid-flight (queued, admitted or
// running in the replayed ledger).
const (
	// RecoveryRequeue re-submits interrupted jobs (answering from the
	// rebuilt result cache when a completed run with the same key
	// survived). The default.
	RecoveryRequeue = "requeue"
	// RecoveryFail marks interrupted jobs failed with a crash-interrupted
	// note and does not re-run them.
	RecoveryFail = "fail"
)

// Submission errors beyond the scheduler's own.
var (
	// ErrNotReady rejects submissions while crash recovery is still
	// re-queueing interrupted jobs (the HTTP layer answers 503; /v1/readyz
	// flips to 200 when recovery completes).
	ErrNotReady = errors.New("serve: not ready: crash recovery in progress")
	// ErrQuarantined rejects a spec whose cache key crashed the runner
	// repeatedly (the circuit breaker; the HTTP layer answers 422).
	ErrQuarantined = errors.New("serve: spec quarantined after repeated panics")
)

// Config sizes a Daemon. Zero values select the defaults noted inline.
type Config struct {
	SimWorkers int           // concurrently running sim jobs (default 4)
	QueueCap   int           // backlog cap before shedding (default 64)
	CacheSize  int           // result-cache entries (default 256)
	Deadline   time.Duration // default per-job deadline (default 2m)
	StoreRoot  string        // WAL directory ("" = in memory only)

	// Recovery selects what happens to jobs the replayed WAL shows as
	// interrupted: RecoveryRequeue (default) or RecoveryFail.
	Recovery string
	// RetryMax bounds transparent retries of transiently failed jobs
	// (deadline, panic, crash-interrupted re-runs). 0 selects the default
	// of 2; negative disables retries.
	RetryMax int
	// RetryBackoff is the base of the exponential retry backoff
	// (base << attempt-1). 0 selects the default of 200ms.
	RetryBackoff time.Duration
	// QuarantineAfter is how many panics a cache key may cause before its
	// spec is shed with ErrQuarantined. 0 selects the default of 3;
	// negative disables the circuit breaker.
	QuarantineAfter int
}

func (cfg Config) withDefaults() Config {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.Recovery == "" {
		cfg.Recovery = RecoveryRequeue
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	return cfg
}

// Daemon glues the pieces together: specs in, records and artefacts out.
type Daemon struct {
	cfg   Config
	store *store.Store
	cache *cache.LRU
	sched *scheduler.Scheduler
	probe rtProbe

	start time.Time
	seq   atomic.Int64

	ready  atomic.Bool
	readyc chan struct{} // closed when recovery completes

	mu          sync.Mutex
	specs       map[string]api.Spec    // id -> canonical spec, for the runner
	keys        map[string]string      // id -> cache key, for retry/quarantine
	attempts    map[string]int         // id -> retries consumed
	timers      map[string]*time.Timer // id -> pending retry backoff
	panicCount  map[string]int         // cache key -> panics observed
	quarantined map[string]bool        // cache key -> shed on submit
	recov       api.RecoveryStats

	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	retries   atomic.Int64
	panics    atomic.Int64
	draining  atomic.Bool
}

// NewDaemon builds a daemon from cfg. With a StoreRoot configured, the
// ledger WAL is replayed before this returns (terminal jobs and their
// artefacts reappear verbatim); resolving interrupted jobs — re-queueing or
// crash-failing them per cfg.Recovery — runs in the background, and the
// daemon rejects new submissions with ErrNotReady until it completes.
func NewDaemon(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Recovery != RecoveryRequeue && cfg.Recovery != RecoveryFail {
		return nil, fmt.Errorf("serve: unknown recovery policy %q (have %s|%s)",
			cfg.Recovery, RecoveryRequeue, RecoveryFail)
	}
	t0 := time.Now()
	st, rep, err := store.Open(cfg.StoreRoot)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:         cfg,
		store:       st,
		cache:       cache.New(cfg.CacheSize),
		start:       time.Now(),
		readyc:      make(chan struct{}),
		specs:       make(map[string]api.Spec),
		keys:        make(map[string]string),
		attempts:    make(map[string]int),
		timers:      make(map[string]*time.Timer),
		panicCount:  make(map[string]int),
		quarantined: make(map[string]bool),
	}
	// Resume the ID sequence above every replayed job so recovered and new
	// records can never collide.
	d.seq.Store(rep.MaxSeq)
	// A key enters the result cache when the store applies its owner's done
	// finish: once it and the artefact are durable, and in the same critical
	// section that makes done visible, so whoever saw the owner done and
	// resubmits gets the hit, and a hit only ever names a run whose state and
	// bytes are on disk.
	st.SetPublish(d.cache.Put)
	d.sched = scheduler.New(scheduler.Config{
		SimWorkers: cfg.SimWorkers,
		QueueCap:   cfg.QueueCap,
		Deadline:   cfg.Deadline,
		OnAdmit:    func(id string) { d.store.Advance(id, store.Admitted, "") },
		OnStart:    func(id string) { d.store.Advance(id, store.Running, "") },
		OnFinish:   d.onFinish,
	})
	if rep.Records == 0 {
		// Fresh store: nothing to resolve, ready synchronously.
		d.finishRecovery(api.RecoveryStats{ReplayMS: time.Since(t0).Seconds() * 1e3})
	} else {
		go d.recoverReplay(t0, rep)
	}
	return d, nil
}

// Store exposes the job ledger (the HTTP layer reads it).
func (d *Daemon) Store() *store.Store { return d.store }

// Ready reports whether crash recovery has completed and submissions are
// accepted.
func (d *Daemon) Ready() bool { return d.ready.Load() }

// ReadyCh is closed once crash recovery completes.
func (d *Daemon) ReadyCh() <-chan struct{} { return d.readyc }

// Close releases the ledger's WAL handle. Call after Drain.
func (d *Daemon) Close() error { return d.store.Close() }

func (d *Daemon) finishRecovery(rs api.RecoveryStats) {
	d.mu.Lock()
	d.recov = rs
	d.mu.Unlock()
	d.ready.Store(true)
	close(d.readyc)
}

// recoverReplay resolves what the replayed WAL left behind: the result
// cache is rebuilt from completed runs (so resubmits of pre-crash work
// still hit), then every interrupted job is re-queued — or answered from
// the rebuilt cache, or crash-failed, per the recovery policy.
func (d *Daemon) recoverReplay(t0 time.Time, rep store.Replay) {
	rs := api.RecoveryStats{
		ReplayEntries: rep.Entries,
		ReplayRecords: rep.Records,
		TornTail:      rep.TornTail,
	}
	// Rebuild the cache in submission order so the earliest completed run
	// of a key owns its artefact, matching what the pre-crash cache held.
	for _, rec := range d.store.List(store.Done) {
		if rec.Cached || rec.ArtefactID != rec.ID {
			continue
		}
		d.cache.Put(rec.Key, rec.ID)
	}
	for _, id := range rep.Interrupted {
		rec, ok := d.store.Get(id)
		if !ok || rec.State.Terminal() {
			continue
		}
		crashFail := func(why string) {
			d.failed.Add(1)
			d.store.Finish(id, store.Failed, why, "", "crash-interrupted")
			rs.CrashFailed++
		}
		if d.cfg.Recovery == RecoveryFail {
			crashFail("crash-interrupted: the daemon went down mid-run")
			continue
		}
		spec, err := api.Decode(rec.Spec)
		var c api.Spec
		if err == nil {
			c, err = spec.Canonicalize()
		}
		if err != nil {
			crashFail(fmt.Sprintf("crash-interrupted: replayed spec no longer canonicalizes: %v", err))
			continue
		}
		if owner, ok := d.cache.Get(rec.Key); ok {
			d.done.Add(1)
			d.store.Finish(id, store.Done, "", owner, "crash-recovered: answered from the rebuilt cache")
			rs.CachedAnswered++
			continue
		}
		d.mu.Lock()
		d.specs[id] = c
		d.keys[id] = rec.Key
		d.mu.Unlock()
		d.store.Advance(id, store.Queued, "crash-recovered: re-queued")
		if err := d.dispatch(id, c); err != nil {
			d.clearJob(id)
			crashFail(fmt.Sprintf("crash-interrupted: re-queue rejected: %v", err))
			continue
		}
		rs.Requeued++
	}
	rs.ReplayMS = time.Since(t0).Seconds() * 1e3
	d.finishRecovery(rs)
}

// Submit validates, canonicalizes and admits one spec. The returned record
// reflects the submission outcome: a cache hit returns the done record of
// the run that owns the artefact, marked Cached (no engine invocation, no
// new record); everything else started Queued and is returned as the ledger
// holds it once its create is durable, which may be further along. A full
// queue sheds with scheduler.ErrQueueFull; an unfinished recovery rejects
// with ErrNotReady; a spec whose key tripped the panic circuit breaker is
// shed with ErrQuarantined.
func (d *Daemon) Submit(spec api.Spec) (store.Record, error) {
	if d.draining.Load() {
		return store.Record{}, scheduler.ErrDraining
	}
	if !d.ready.Load() {
		return store.Record{}, ErrNotReady
	}
	c, err := spec.Canonicalize()
	if err != nil {
		return store.Record{}, err
	}
	key, err := c.CacheKey()
	if err != nil {
		return store.Record{}, err
	}
	d.mu.Lock()
	shed := d.quarantined[key]
	d.mu.Unlock()
	if shed {
		return store.Record{}, fmt.Errorf("%w (key %.16s…)", ErrQuarantined, key)
	}
	// Warm path: a repeat is the run it repeats. A key is cached only once
	// its owner's done finish, bytes included, is durable and applied, so
	// the owner's record is the whole answer: no id is minted, nothing is
	// logged, no fsync is awaited. An owner the ledger does not know (none
	// today: records are never evicted) falls through to a fresh run;
	// whatever evicts records must drop their cache entries with them.
	if owner, ok := d.cache.Get(key); ok {
		if r, ok := d.store.Get(owner); ok {
			r.Cached = true
			return r, nil
		}
	}

	id := fmt.Sprintf("job-%06d", d.seq.Add(1))
	d.mu.Lock()
	d.specs[id] = c
	d.keys[id] = key
	d.mu.Unlock()
	durable := d.store.CreateAsync(id, key, c.Class(), c.CanonicalJSON(), store.Queued)

	if err := d.dispatch(id, c); err != nil {
		// Shed: the record never ran, remove it so the ledger only holds
		// admitted history. The delete's fsync covers the create too.
		d.store.Delete(id)
		d.clearJob(id)
		return store.Record{}, err
	}
	// The job may start before its create is durable; it is acknowledged
	// only after.
	durable()
	r, _ := d.store.Get(id)
	return r, nil
}

// dispatch hands one canonical spec to the scheduler (initial submission,
// crash-recovery re-queue and retry all funnel through here).
func (d *Daemon) dispatch(id string, c api.Spec) error {
	return d.sched.Submit(scheduler.Job{
		ID:       id,
		Class:    c.Class(),
		Deadline: time.Duration(c.DeadlineSec * float64(time.Second)),
		Run:      func(ctx context.Context) error { return d.runJob(ctx, id, c) },
	})
}

func (d *Daemon) runJob(ctx context.Context, id string, spec api.Spec) error {
	files, err := Execute(ctx, spec, &d.probe)
	if err != nil {
		return err
	}
	if err := d.store.PutArtefact(id, files); err != nil {
		return fmt.Errorf("serve: persisting artefact of %s: %w", id, err)
	}
	return nil
}

// clearJob forgets a job's runner-side state.
func (d *Daemon) clearJob(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.specs, id)
	delete(d.keys, id)
	delete(d.attempts, id)
}

// onFinish maps a scheduler completion onto the ledger.
func (d *Daemon) onFinish(id string, err error, cancelRequested bool) {
	switch {
	case err == nil:
		d.clearJob(id)
		d.done.Add(1)
		d.store.Finish(id, store.Done, "", id, "") // publishes the key, see NewDaemon
	case cancelRequested:
		d.clearJob(id)
		d.cancelled.Add(1)
		d.store.Finish(id, store.Cancelled, err.Error(), "", "")
	default:
		d.failJob(id, err)
	}
}

// transientErr reports whether a failure is worth retrying: a deadline cut
// (the machine may simply have been busy) or a recovered panic (isolated to
// the job; a repeat offender trips the quarantine breaker instead).
func transientErr(err error) bool {
	var pe *experiments.PanicError
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &pe)
}

// firstLine compresses an error for a transition note: a panic error's
// first line is "panic: <value>", the stack stays in the terminal record's
// Error field only.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// failJob resolves a non-cancel failure: transient errors within the retry
// budget re-queue with exponential backoff; everything else is terminal.
// Panics additionally feed the per-key quarantine circuit breaker.
func (d *Daemon) failJob(id string, err error) {
	var pe *experiments.PanicError
	isPanic := errors.As(err, &pe)
	if isPanic {
		d.panics.Add(1)
	}

	d.mu.Lock()
	c, hasSpec := d.specs[id]
	key := d.keys[id]
	nowQuarantined := false
	if isPanic && d.cfg.QuarantineAfter > 0 && key != "" {
		d.panicCount[key]++
		if d.panicCount[key] >= d.cfg.QuarantineAfter && !d.quarantined[key] {
			d.quarantined[key] = true
			nowQuarantined = true
		}
	}
	retry := hasSpec && !d.draining.Load() && transientErr(err) &&
		!d.quarantined[key] && d.attempts[id] < d.cfg.RetryMax
	if retry {
		d.attempts[id]++
		n := d.attempts[id]
		backoff := d.cfg.RetryBackoff << (n - 1)
		d.timers[id] = time.AfterFunc(backoff, func() { d.retryNow(id, c) })
		d.mu.Unlock()
		d.retries.Add(1)
		d.store.Advance(id, store.Queued,
			fmt.Sprintf("retry %d/%d in %s: %s", n, d.cfg.RetryMax, backoff, firstLine(err.Error())))
		return
	}
	d.mu.Unlock()
	d.clearJob(id)
	d.failed.Add(1)
	note := ""
	switch {
	case nowQuarantined:
		note = "panicked; spec quarantined"
	case isPanic:
		note = "panicked"
	}
	d.store.Finish(id, store.Failed, err.Error(), "", note)
}

// retryNow fires when a retry backoff expires: re-dispatch unless the job
// was cancelled or the daemon started draining in the meantime.
func (d *Daemon) retryNow(id string, c api.Spec) {
	d.mu.Lock()
	if _, pending := d.timers[id]; !pending {
		d.mu.Unlock()
		return // cancelled or drained while waiting
	}
	delete(d.timers, id)
	d.mu.Unlock()
	if err := d.dispatch(id, c); err != nil {
		d.clearJob(id)
		d.failed.Add(1)
		d.store.Finish(id, store.Failed, err.Error(), "", "retry re-queue rejected")
	}
}

// Cancel cancels a job: queued jobs finish immediately as cancelled,
// running comm jobs have their engine context cut, and a job parked on a
// retry backoff is cancelled without re-running. False for unknown or
// already-finished jobs.
func (d *Daemon) Cancel(id string) bool {
	d.mu.Lock()
	if t, pending := d.timers[id]; pending {
		delete(d.timers, id)
		d.mu.Unlock()
		t.Stop()
		d.clearJob(id)
		d.cancelled.Add(1)
		d.store.Finish(id, store.Cancelled, context.Canceled.Error(), "", "cancelled while awaiting retry")
		return true
	}
	d.mu.Unlock()
	return d.sched.Cancel(id)
}

// Drain performs a graceful shutdown: submissions are rejected, retry
// backoffs are cancelled, queued jobs are cancelled, running jobs finish
// (or are cut when ctx expires).
func (d *Daemon) Drain(ctx context.Context) {
	d.draining.Store(true)
	d.mu.Lock()
	pending := d.timers
	d.timers = make(map[string]*time.Timer)
	d.mu.Unlock()
	for id, t := range pending {
		t.Stop()
		d.clearJob(id)
		d.cancelled.Add(1)
		d.store.Finish(id, store.Cancelled, context.Canceled.Error(), "", "cancelled while awaiting retry")
	}
	d.sched.Drain(ctx)
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() api.Stats {
	ss := d.sched.Stats()
	d.mu.Lock()
	recov := d.recov
	quarantined := len(d.quarantined)
	d.mu.Unlock()
	return api.Stats{
		UptimeSec:       time.Since(d.start).Seconds(),
		Ready:           d.ready.Load(),
		Submitted:       ss.Submitted + d.cache.Hits(),
		Shed:            ss.Shed,
		Queued:          int64(ss.Queued),
		Running:         int64(ss.Running),
		Done:            d.done.Load(),
		Failed:          d.failed.Load(),
		Cancelled:       d.cancelled.Load(),
		Retries:         d.retries.Load(),
		Panics:          d.panics.Load(),
		Quarantined:     quarantined,
		CacheHits:       d.cache.Hits(),
		CacheMisses:     d.cache.Misses(),
		CacheEntries:    d.cache.Len(),
		RTMaxObserved:   d.probe.max.Load(),
		RTAuditFailures: d.probe.audits.Load(),
		Recovery:        recov,
	}
}

// CacheHits exposes the lifetime cache hit count (asserted by tests).
func (d *Daemon) CacheHits() int64 { return d.cache.Hits() }
