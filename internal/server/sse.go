package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ProgressEvent is one completed unit of instrumented work, as streamed
// over GET /v1/progress (Server-Sent Events, event type "progress").
type ProgressEvent struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	MS    float64 `json:"ms"`
	Seq   uint64  `json:"seq"`
}

// progressBroker fans the process-wide metrics progress hook out to any
// number of SSE subscribers. Slow subscribers drop events rather than
// back-pressure the worker goroutines emitting them: the hook runs on
// the sweep's hot path, so publish never blocks.
type progressBroker struct {
	mu   sync.Mutex
	seq  uint64
	subs map[chan ProgressEvent]struct{}
}

func newProgressBroker() *progressBroker {
	return &progressBroker{subs: make(map[chan ProgressEvent]struct{})}
}

// publish stamps the event with a monotone sequence number and offers
// it to every subscriber, dropping it for channels that are full.
func (b *progressBroker) publish(ev ProgressEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	for ch := range b.subs {
		select {
		case ch <- ev:
		default: // subscriber too slow; drop rather than block the worker
		}
	}
}

// subscribe registers a buffered event channel; the returned cancel
// removes it and must be called exactly once.
func (b *progressBroker) subscribe() (<-chan ProgressEvent, func()) {
	ch := make(chan ProgressEvent, 256)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, ch)
		b.mu.Unlock()
	}
}

// hook is the obs.OnProgress adapter.
func (b *progressBroker) hook(stage string, count int64, d time.Duration) {
	b.publish(ProgressEvent{Stage: stage, Count: count, MS: float64(d.Nanoseconds()) / 1e6})
}

// handleProgress streams progress events until the client disconnects.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	events, cancel := s.progress.subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": biodegd progress stream\n\n")
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
			fl.Flush()
		}
	}
}
