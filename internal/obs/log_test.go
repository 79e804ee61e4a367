package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

// TestLogHandlerSpanID pins the log<->trace correlation contract: a
// record logged under a span-carrying context gains a span_id equal to
// the span's id in the collected trace; records without a span pass
// through without the attribute.
func TestLogHandlerSpanID(t *testing.T) {
	EnableCapacity(16)
	defer Disable()
	ctx := context.Background()
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))

	sctx, sp := Start(ctx, "work")
	logger.InfoContext(sctx, "inside span", "k", "v")
	wantID := sp.ID()
	sp.End()
	if wantID == 0 {
		t.Fatal("span started while tracing is enabled has no id")
	}

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %v: %q", err, buf.String())
	}
	got, ok := line["span_id"].(float64)
	if !ok || uint64(got) != wantID {
		t.Errorf("span_id = %v, want %d", line["span_id"], wantID)
	}

	// The logged id must identify a span in the trace export.
	found := false
	for _, s := range Collect().Spans {
		if s.ID == wantID {
			found = true
		}
	}
	if !found {
		t.Errorf("span_id %d not present in collected trace", wantID)
	}

	buf.Reset()
	logger.InfoContext(context.Background(), "no span")
	if bytes.Contains(buf.Bytes(), []byte("span_id")) {
		t.Errorf("span-less record carries span_id: %s", buf.String())
	}
}

// TestLogHandlerPreservesWrapping checks WithAttrs/WithGroup keep the
// correlation wrapper, so derived loggers still stamp span_id.
func TestLogHandlerPreservesWrapping(t *testing.T) {
	EnableCapacity(16)
	defer Disable()
	ctx := context.Background()
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil))).
		With("component", "test").WithGroup("g")

	sctx, sp := Start(ctx, "work")
	logger.InfoContext(sctx, "derived")
	sp.End()
	if !bytes.Contains(buf.Bytes(), []byte("span_id")) {
		t.Errorf("derived logger lost span correlation: %s", buf.String())
	}
}
