package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
)

// maxSpecBytes bounds a submitted spec body; canonical envelopes are tiny.
const maxSpecBytes = 1 << 20

// Handler builds the daemon's HTTP surface:
//
//	POST /v1/jobs                  submit a spec          -> 202 SubmitResult (200 on a cache hit)
//	GET  /v1/jobs                  list records           -> 200 [Record], ?state= filters
//	GET  /v1/jobs/{id}             one record             -> 200 Record
//	GET  /v1/jobs/{id}/events      long-poll progress     -> 200 Record once version > ?since= (or ?wait= expires)
//	GET  /v1/jobs/{id}/result      primary artefact       -> 200 result.json bytes
//	GET  /v1/jobs/{id}/artefacts   artefact names         -> 200 [string]
//	GET  /v1/jobs/{id}/artefacts/{name}                   -> 200 file bytes
//	POST /v1/jobs/{id}/cancel      cancel                 -> 202
//	GET  /v1/stats                 daemon snapshot        -> 200 Stats
//	GET  /v1/healthz               liveness               -> 200 "ok"
//
// A cache hit answers 200 with the id of the run that produced the bytes,
// state done and cached true; it creates no job of its own, so GET
// /v1/jobs lists runs only and /v1/stats counts repeats in cache_hits.
// Shedding answers 429; draining answers 503.
func Handler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		spec, err := api.Decode(body)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		rec, err := d.Submit(spec)
		switch {
		case errors.Is(err, scheduler.ErrQueueFull):
			fail(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, scheduler.ErrDraining), errors.Is(err, ErrNotReady):
			fail(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrQuarantined):
			fail(w, http.StatusUnprocessableEntity, err)
			return
		case err != nil:
			fail(w, http.StatusBadRequest, err)
			return
		}
		status := http.StatusAccepted
		if rec.Cached {
			status = http.StatusOK
		}
		reply(w, status, api.SubmitResult{ID: rec.ID, State: string(rec.State), Cached: rec.Cached, Key: rec.Key})
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, d.Store().List(store.State(r.URL.Query().Get("state"))))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := d.Store().Get(r.PathValue("id"))
		if !ok {
			fail(w, http.StatusNotFound, errors.New("no such job"))
			return
		}
		reply(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		since, _ := strconv.Atoi(r.URL.Query().Get("since"))
		wait := 30 * time.Second
		if s := r.URL.Query().Get("wait"); s != "" {
			sec, err := strconv.ParseFloat(s, 64)
			if err != nil || sec < 0 {
				fail(w, http.StatusBadRequest, errors.New("bad wait"))
				return
			}
			wait = time.Duration(sec * float64(time.Second))
		}
		rec, ok := d.Store().Wait(r.PathValue("id"), since, wait)
		if !ok {
			fail(w, http.StatusNotFound, errors.New("no such job"))
			return
		}
		reply(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		serveArtefact(w, d, r.PathValue("id"), "result.json")
	})

	mux.HandleFunc("GET /v1/jobs/{id}/artefacts", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		names, err := d.Store().ArtefactNames(id)
		if err != nil {
			notFound(w, d, id, "no artefacts")
			return
		}
		reply(w, http.StatusOK, names)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/artefacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		serveArtefact(w, d, r.PathValue("id"), r.PathValue("name"))
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if d.Cancel(id) {
			reply(w, http.StatusAccepted, map[string]string{"id": id, "cancelling": "true"})
			return
		}
		// Unknown to the scheduler: either finished (fine, idempotent) or
		// never submitted.
		if rec, ok := d.Store().Get(id); ok {
			reply(w, http.StatusOK, rec)
			return
		}
		fail(w, http.StatusNotFound, errors.New("no such job"))
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, d.Stats())
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})

	// Readiness is distinct from liveness: a daemon replaying a large WAL
	// is alive (healthz 200) but not yet accepting submissions until
	// recovery has re-queued every interrupted job (readyz 503 -> 200).
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !d.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "recovering\n")
			return
		}
		io.WriteString(w, "ok\n")
	})

	return mux
}

// serveArtefact writes one artefact file of a job; the store reads it
// through the job's record, so a cache-answered record serves its owner's.
func serveArtefact(w http.ResponseWriter, d *Daemon, id, name string) {
	buf, err := d.Store().Artefact(id, name)
	if err != nil {
		notFound(w, d, id, "no such artefact")
		return
	}
	ct := "application/octet-stream"
	switch {
	case len(name) > 5 && name[len(name)-5:] == ".json":
		ct = "application/json"
	case len(name) > 4 && name[len(name)-4:] == ".csv":
		ct = "text/csv; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(buf)
}

// notFound answers a missed artefact read: 404 "no such job" for an id the
// ledger does not hold, else 404 with what.
func notFound(w http.ResponseWriter, d *Daemon, id, what string) {
	if _, ok := d.Store().Get(id); !ok {
		what = "no such job"
	}
	fail(w, http.StatusNotFound, errors.New(what))
}

func reply(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fail(w http.ResponseWriter, status int, err error) {
	reply(w, status, api.Error{Error: err.Error()})
}
