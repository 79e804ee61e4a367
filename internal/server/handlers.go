package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"repro/biodeg/api"
	"repro/internal/obs"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// handleFaultz reports the chaos posture: what the injector has fired
// (per kind and per stage) and what the serving path has observed
// (engine errors, shed requests, retries) plus the breaker state.
func (s *Server) handleFaultz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version":  "v1",
		"injected": s.inj.Snapshot(),
		"breaker":  s.brk.Status(),
		"observed": map[string]int64{
			"engine_errors": s.engineErrs.Load(),
			"shed":          s.shed.Load(),
			"retries":       obs.Count("retry"),
		},
	})
}

func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveComputed(w, r, "run\x00"+id, func(ctx context.Context) (any, error) {
		return s.eng.RunExperiment(ctx, id)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	switch kind {
	case api.SweepALUDepth, api.SweepCoreDepth, api.SweepWidth:
	default:
		writeError(w, http.StatusNotFound, "unknown sweep kind "+kind+
			" (want "+api.SweepALUDepth+", "+api.SweepCoreDepth+", or "+api.SweepWidth+")")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req api.SweepRequest
	if !decode(w, body, &req) {
		return
	}
	s.serveComputed(w, r, "sweep\x00"+kind+"\x00"+string(canonical(req)), func(ctx context.Context) (any, error) {
		return s.eng.Sweep(ctx, kind, req)
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req api.SimulateRequest
	if !decode(w, body, &req) {
		return
	}
	s.serveComputed(w, r, "simulate\x00"+string(canonical(req)), func(ctx context.Context) (any, error) {
		return s.eng.Simulate(ctx, req)
	})
}

// handleJobCreate accepts a durable job (POST /v1/jobs): 202 for a
// newly created job, 200 when the request deduped onto (or requeued) an
// existing one. The response is the job's current status; poll
// GET /v1/jobs/{id} for progress and the result.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "durable jobs disabled (start biodegd with -jobs DIR)")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req api.JobRequest
	if !decode(w, body, &req) {
		return
	}
	j, existed, err := s.jobs.create(req)
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	status := http.StatusAccepted
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobs.status(j, false))
}

// jobPageLimit bounds GET /v1/jobs pages: the default when ?limit= is
// absent, and the cap a larger request clamps to.
const (
	defaultJobPageLimit = 100
	maxJobPageLimit     = 1000
)

// handleJobList serves GET /v1/jobs with pagination and filtering:
// ?limit= caps the page (default 100, max 1000), ?after= resumes past
// a job ID (the previous page's next cursor), ?state= filters by job
// state. Ordering is stable — ascending job ID — so pages never skip
// or repeat a job that existed across the whole walk.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "durable jobs disabled (start biodegd with -jobs DIR)")
		return
	}
	q := r.URL.Query()
	limit := defaultJobPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer, got "+v)
			return
		}
		limit = min(n, maxJobPageLimit)
	}
	state := q.Get("state")
	switch state {
	case "", api.JobPending, api.JobRunning, api.JobDone, api.JobFailed:
	default:
		writeError(w, http.StatusBadRequest, "unknown state "+state+
			" (want "+api.JobPending+", "+api.JobRunning+", "+api.JobDone+", or "+api.JobFailed+")")
		return
	}
	jobs, next := s.jobs.page(q.Get("after"), state, limit)
	writeJSON(w, http.StatusOK, api.JobList{Version: api.Version, Jobs: jobs, Next: next})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "durable jobs disabled (start biodegd with -jobs DIR)")
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j, true))
}

// canonical renders a decoded request back to deterministic JSON, so
// two bodies that differ only in whitespace or field order coalesce and
// cache as one computation.
func canonical(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}
