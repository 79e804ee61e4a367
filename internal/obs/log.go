package obs

import (
	"context"
	"log/slog"
)

// logHandler decorates an slog.Handler with trace correlation: every
// record whose context carries a live span gains a span_id attribute
// matching that span's id in the trace exports. Log lines and trace
// spans of one run then join on span_id.
type logHandler struct {
	inner slog.Handler
}

// NewLogHandler wraps inner so records logged with a span-carrying
// context (slog.InfoContext and friends) carry span_id. Records logged
// without a span — or while tracing is disabled, when spans have no
// ids — are passed through untouched.
func NewLogHandler(inner slog.Handler) slog.Handler {
	return &logHandler{inner: inner}
}

func (h *logHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *logHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := SpanID(ctx); id != 0 {
		r = r.Clone()
		r.AddAttrs(slog.Uint64("span_id", id))
	}
	return h.inner.Handle(ctx, r)
}

func (h *logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &logHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	return &logHandler{inner: h.inner.WithGroup(name)}
}
