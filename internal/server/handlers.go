package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

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
