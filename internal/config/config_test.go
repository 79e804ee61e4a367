package config

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
)

func TestZeroConfigResolvesToGOMAXPROCS(t *testing.T) {
	if got, want := (Config{}).WorkerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("zero WorkerCount = %d, want %d", got, want)
	}
	if got := (Config{Workers: 3}).WorkerCount(); got != 3 {
		t.Errorf("WorkerCount = %d, want 3", got)
	}
	if got := (Config{Workers: -1}).WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative Workers resolved to %d, want GOMAXPROCS", got)
	}
}

func TestContextCarriesConfig(t *testing.T) {
	ctx := context.Background()
	if _, ok := FromContext(ctx); ok {
		t.Fatal("bare context should carry no Config")
	}
	want := Config{Workers: 2, Metrics: true, LibCache: "/tmp/x",
		Faults: fault.New(fault.Spec{Seed: 1, Rate: 1})}
	ctx = WithContext(ctx, want)
	got, ok := FromContext(ctx)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("FromContext = %+v, %v; want %+v, true", got, ok, want)
	}
	if !reflect.DeepEqual(Get(ctx), want) {
		t.Errorf("Get = %+v, want %+v", Get(ctx), want)
	}
}

func TestDefaultFallback(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	want := Config{Workers: 7, LibCache: "/tmp/cache"}
	SetDefault(want)
	if !reflect.DeepEqual(Default(), want) {
		t.Errorf("Default = %+v, want %+v", Default(), want)
	}
	// A context without a Config falls back to the default...
	if !reflect.DeepEqual(Get(context.Background()), want) {
		t.Errorf("Get(bare) = %+v, want default %+v", Get(context.Background()), want)
	}
	// ...and a context-carried Config wins over the default.
	ctxCfg := Config{Workers: 1}
	ctx := WithContext(context.Background(), ctxCfg)
	if !reflect.DeepEqual(Get(ctx), ctxCfg) {
		t.Errorf("Get(ctx) = %+v, want ctx config %+v", Get(ctx), ctxCfg)
	}
}

// TestConcurrentSessionsDoNotShareConfig models two sessions with
// different worker counts resolving their configuration concurrently:
// each goroutine must always observe its own context's value,
// regardless of the process default changing underneath.
func TestConcurrentSessionsDoNotShareConfig(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	ctxA := WithContext(context.Background(), Config{Workers: 1})
	ctxB := WithContext(context.Background(), Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if w := Get(ctxA).WorkerCount(); w != 1 {
					t.Errorf("session A saw workers = %d, want 1", w)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if w := Get(ctxB).WorkerCount(); w != 4 {
					t.Errorf("session B saw workers = %d, want 4", w)
					return
				}
				SetDefault(Config{Workers: j%8 + 1})
			}
		}()
	}
	wg.Wait()
}
