package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/biodeg/api"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

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
