package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"knemesis/internal/experiments"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
)

// quarantineAfter is how many panics a cache key may cause, across
// submissions, before its spec is shed with ErrQuarantined. A run is
// deterministic, so each submission of a panicking spec panics once.
const quarantineAfter = 3

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
	SimWorkers int           // concurrently running sim jobs (default scheduler.New's)
	QueueCap   int           // backlog cap before shedding (default scheduler.New's)
	Deadline   time.Duration // default per-job deadline (default 2m)
	StoreRoot  string        // WAL directory ("" = in memory only)
}

func (cfg Config) withDefaults() Config {
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	return cfg
}

// Daemon glues the pieces together: specs in, records and artefacts out.
type Daemon struct {
	cfg   Config
	store *store.Store
	sched *scheduler.Scheduler
	probe rtProbe

	start time.Time
	seq   atomic.Int64

	ready atomic.Bool

	mu          sync.Mutex
	keys        map[string]string // id -> cache key, for the quarantine breaker
	panicCount  map[string]int    // cache key -> panics; shed at quarantineAfter
	quarantined int               // keys that reached quarantineAfter
	recov       api.RecoveryStats

	hits      atomic.Int64 // lookups answered by an owner
	misses    atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	panics    atomic.Int64
	draining  atomic.Bool
}

// NewDaemon builds a daemon from cfg. With a StoreRoot configured, the
// ledger WAL is replayed before this returns (terminal jobs and their
// artefacts reappear verbatim); resolving interrupted jobs — re-queueing
// them, see recoverReplay — runs in the background, and the daemon rejects
// new submissions with ErrNotReady until it completes.
func NewDaemon(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	t0 := time.Now()
	st, rep, err := store.Open(cfg.StoreRoot)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:        cfg,
		store:      st,
		start:      time.Now(),
		keys:       make(map[string]string),
		panicCount: make(map[string]int),
	}
	// Resume the ID sequence above every replayed job so recovered and new
	// records can never collide.
	d.seq.Store(rep.MaxSeq)
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

// Close releases the ledger's WAL handle. Call after Drain.
func (d *Daemon) Close() error { return d.store.Close() }

func (d *Daemon) finishRecovery(rs api.RecoveryStats) {
	d.mu.Lock()
	d.recov = rs
	d.mu.Unlock()
	d.ready.Store(true)
}

// recoverReplay resolves the jobs the replayed WAL left interrupted: each
// is answered by its key's owner, which replay restored with the ledger, or
// re-queued. A job is crash-failed only when its spec no longer
// canonicalizes or the scheduler rejects the re-queue.
func (d *Daemon) recoverReplay(t0 time.Time, rep store.Replay) {
	rs := api.RecoveryStats{
		ReplayEntries: rep.Entries,
		ReplayRecords: rep.Records,
		TornTail:      rep.TornTail,
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
		// The key is re-derived, not read from the log: after a
		// CodeVersion bump or a canonicalisation change the logged key
		// names another run's artefact.
		spec, err := api.Decode(rec.Spec)
		var c api.Spec
		var key string
		if err == nil {
			c, err = spec.Canonicalize()
		}
		if err == nil {
			key, err = c.CacheKey()
		}
		if err != nil {
			crashFail(fmt.Sprintf("crash-interrupted: replayed spec no longer canonicalizes: %v", err))
			continue
		}
		if owner, ok := d.lookup(key); ok {
			d.done.Add(1)
			d.store.Finish(id, store.Done, "", owner, "crash-recovered: answered from the key's owner")
			rs.CachedAnswered++
			continue
		}
		d.mu.Lock()
		d.keys[id] = key
		d.mu.Unlock()
		d.store.Requeue(id, key, "crash-recovered: re-queued")
		if err := d.dispatch(id, c); err != nil {
			d.forgetJob(id)
			crashFail(fmt.Sprintf("crash-interrupted: re-queue rejected: %v", err))
			continue
		}
		rs.Requeued++
	}
	rs.ReplayMS = time.Since(t0).Seconds() * 1e3
	d.finishRecovery(rs)
}

// Submit validates, canonicalizes and admits one spec. The returned record
// reflects the submission outcome: a cache hit returns a done record under
// the id of the run that owns the artefact, marked Cached (no engine
// invocation, no new record); everything else started Queued and is
// returned as the ledger holds it once its create is durable, which may be
// further along. A full queue sheds with scheduler.ErrQueueFull; an
// unfinished recovery rejects with ErrNotReady; a spec whose key panicked
// quarantineAfter times is shed with ErrQuarantined. A failed run is never
// cached: resubmitting its spec starts a new job.
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
	shed := d.panicCount[key] >= quarantineAfter
	d.mu.Unlock()
	if shed {
		return store.Record{}, fmt.Errorf("%w (key %.16s…)", ErrQuarantined, key)
	}
	// Warm path: a repeat is the run it repeats. A key has an owner only
	// once the owner's done finish, bytes included, is durable and applied,
	// so the owner's id is the whole answer: no id is minted, nothing is
	// logged, no fsync is awaited.
	if owner, ok := d.lookup(key); ok {
		return store.Record{ID: owner, Key: key, State: store.Done, Cached: true, ArtefactID: owner}, nil
	}

	id := fmt.Sprintf("job-%06d", d.seq.Add(1))
	d.mu.Lock()
	d.keys[id] = key
	d.mu.Unlock()
	durable := d.store.CreateAsync(id, key, c.Class(), c.CanonicalJSON(), store.Queued)

	if err := d.dispatch(id, c); err != nil {
		// Shed: the record never ran, remove it so the ledger only holds
		// admitted history. The delete's fsync covers the create too.
		d.store.Delete(id)
		d.forgetJob(id)
		return store.Record{}, err
	}
	// The job may start before its create is durable; it is acknowledged
	// only after.
	durable()
	r, _ := d.store.Get(id)
	return r, nil
}

// lookup returns the id of the job owning key's artefact and counts the
// hit or miss.
func (d *Daemon) lookup(key string) (string, bool) {
	owner, ok := d.store.Owner(key)
	if ok {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return owner, ok
}

// dispatch hands one canonical spec to the scheduler (initial submission
// and crash-recovery re-queue both funnel through here). The caller records
// the job's key in d.keys first.
func (d *Daemon) dispatch(id string, c api.Spec) error {
	// A spec may only shorten the daemon's deadline. Compare in seconds:
	// a huge deadline_sec overflows a Duration.
	var deadline time.Duration
	if c.DeadlineSec > 0 && c.DeadlineSec < d.cfg.Deadline.Seconds() {
		deadline = time.Duration(c.DeadlineSec * float64(time.Second))
	}
	return d.sched.Submit(scheduler.Job{
		ID:       id,
		Class:    c.Class(),
		Deadline: deadline,
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

// forgetJob drops a job's key and returns it.
func (d *Daemon) forgetJob(id string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := d.keys[id]
	delete(d.keys, id)
	return key
}

// onFinish maps a scheduler completion onto the ledger. Every outcome is
// final: a run is deterministic, so one that failed would fail again, and
// a deadline cut is the client's budget spent.
func (d *Daemon) onFinish(id string, err error, cancelRequested bool) {
	key := d.forgetJob(id)
	switch {
	case err == nil:
		d.done.Add(1)
		d.store.Finish(id, store.Done, "", id, "") // the key's owner, unless one finished first
	case cancelRequested:
		d.cancelled.Add(1)
		d.store.Finish(id, store.Cancelled, err.Error(), "", "")
	default:
		note := d.notePanic(key, err)
		d.failed.Add(1)
		d.store.Finish(id, store.Failed, err.Error(), "", note)
	}
}

// notePanic feeds a failure that is a recovered panic to the per-key
// quarantine breaker, before the failure is visible, and returns the note
// for the job's terminal transition ("" for any other error).
func (d *Daemon) notePanic(key string, err error) string {
	var pe *experiments.PanicError
	if !errors.As(err, &pe) {
		return ""
	}
	d.panics.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.panicCount[key]++
	if d.panicCount[key] != quarantineAfter {
		return "panicked"
	}
	d.quarantined++
	return "panicked; spec quarantined"
}

// Cancel cancels a job: a queued job finishes at once as cancelled, a
// running comm job has its engine context cut. False for unknown or
// already-finished jobs.
func (d *Daemon) Cancel(id string) bool { return d.sched.Cancel(id) }

// Drain performs a graceful shutdown: submissions are rejected, queued jobs
// are cancelled, running jobs finish (or are cut when ctx expires).
func (d *Daemon) Drain(ctx context.Context) {
	d.draining.Store(true)
	d.sched.Drain(ctx)
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() api.Stats {
	ss := d.sched.Stats()
	d.mu.Lock()
	recov := d.recov
	quarantined := d.quarantined
	d.mu.Unlock()
	return api.Stats{
		UptimeSec:       time.Since(d.start).Seconds(),
		Ready:           d.ready.Load(),
		Submitted:       ss.Submitted + d.hits.Load(),
		Shed:            ss.Shed,
		Queued:          int64(ss.Queued),
		Running:         int64(ss.Running),
		Done:            d.done.Load(),
		Failed:          d.failed.Load(),
		Cancelled:       d.cancelled.Load(),
		Panics:          d.panics.Load(),
		Quarantined:     quarantined,
		CacheHits:       d.hits.Load(),
		CacheMisses:     d.misses.Load(),
		CacheEntries:    d.store.Owners(),
		RTMaxObserved:   d.probe.max.Load(),
		RTAuditFailures: d.probe.audits.Load(),
		Recovery:        recov,
	}
}
