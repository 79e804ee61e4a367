package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks an error produced by the injector, so callers (and
// tests) can distinguish chaos from genuine failures with errors.Is.
var ErrInjected = errors.New("injected fault")

// Kind is one fault class.
type Kind int

const (
	// KindError makes the site return ErrInjected.
	KindError Kind = iota
	// KindLatency stalls the site for Spec.Latency.
	KindLatency
	// KindPanic makes the site panic.
	KindPanic
	// KindKill exits the process at the site with KillExitCode, so
	// chaos tests can simulate a hard mid-write crash (SIGKILL, OOM)
	// instead of an error a partial sweep annotates: no recovery
	// layer, deferred call or drain runs. Never part of the default
	// kind set; it must be named explicitly (kinds=...+kill).
	KindKill
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	case KindKill:
		return "kill"
	}
	return "kind" + strconv.Itoa(int(k))
}

// KillExitCode is the exit status of a KindKill injection: the shell's
// status for a process ended by SIGKILL.
const KillExitCode = 137

// DefaultLatency is the injected stall when the spec names none.
const DefaultLatency = 10 * time.Millisecond

// Spec is one parsed fault-injection plan. The zero value is disabled
// (Rate 0 injects nothing).
type Spec struct {
	// Seed keys every injection decision; two runs with the same seed
	// (and the same work) hit the same fault sites.
	Seed int64
	// Rate is the per-site, per-attempt firing probability in [0, 1].
	Rate float64
	// Kinds enables fault classes; empty means error+latency.
	Kinds []Kind
	// Latency is the stall injected by KindLatency (DefaultLatency if 0).
	Latency time.Duration
	// Stages restricts injection to sites whose name starts with one of
	// these prefixes (the segment before the first ':' is the stage
	// name); empty means every site.
	Stages []string
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool { return s.Rate > 0 }

// kinds resolves the effective kind set.
func (s Spec) kinds() []Kind {
	if len(s.Kinds) == 0 {
		return []Kind{KindError, KindLatency}
	}
	return s.Kinds
}

// latency resolves the effective injected stall.
func (s Spec) latency() time.Duration {
	if s.Latency > 0 {
		return s.Latency
	}
	return DefaultLatency
}

// String renders the spec in canonical Parse syntax ("" when disabled).
// Parse(s.String()) round-trips.
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	parts := []string{
		"seed=" + strconv.FormatInt(s.Seed, 10),
		"rate=" + strconv.FormatFloat(s.Rate, 'g', -1, 64),
	}
	names := make([]string, len(s.kinds()))
	for i, k := range s.kinds() {
		names[i] = k.String()
	}
	parts = append(parts, "kinds="+strings.Join(names, "+"))
	parts = append(parts, "latency="+s.latency().String())
	if len(s.Stages) > 0 {
		parts = append(parts, "stages="+strings.Join(s.Stages, "+"))
	}
	return strings.Join(parts, ",")
}

// Parse reads the -faults flag syntax: comma-separated key=value pairs
//
//	seed=1,rate=0.1,kinds=error+latency+panic,latency=5ms,stages=depth-point+width-point
//
// seed and rate are required for an enabled spec ("" parses to the
// disabled zero Spec); the rest default as documented on Spec.
func Parse(s string) (Spec, error) {
	spec := Spec{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return Spec{}, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: malformed spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			spec.Rate, err = strconv.ParseFloat(val, 64)
			// Negated so NaN, which fails every comparison, is out of range.
			if err == nil && !(spec.Rate >= 0 && spec.Rate <= 1) {
				err = fmt.Errorf("rate %v out of [0,1]", spec.Rate)
			}
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				switch name {
				case "error":
					spec.Kinds = append(spec.Kinds, KindError)
				case "latency":
					spec.Kinds = append(spec.Kinds, KindLatency)
				case "panic":
					spec.Kinds = append(spec.Kinds, KindPanic)
				case "kill":
					spec.Kinds = append(spec.Kinds, KindKill)
				default:
					err = fmt.Errorf("unknown kind %q (want error, latency, panic, or kill)", name)
				}
				if err != nil {
					break
				}
			}
		case "latency":
			spec.Latency, err = time.ParseDuration(val)
			// Zero would read back as DefaultLatency; omit the key for that.
			if err == nil && spec.Latency <= 0 {
				err = fmt.Errorf("latency %v is not positive", spec.Latency)
			}
		case "stages":
			spec.Stages = strings.Split(val, "+")
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: spec %q: %v", part, err)
		}
	}
	if spec.Rate == 0 {
		return Spec{}, fmt.Errorf("fault: spec %q has no rate (rate=0 disables; omit the flag instead)", s)
	}
	return spec, nil
}

// Injector decides and executes fault injections for one Spec. A nil
// *Injector is valid and injects nothing.
type Injector struct {
	spec    Spec
	latency time.Duration
	kinds   []Kind
}

// New builds an Injector for spec, or nil when the spec is disabled —
// so callers can thread the result around without branching.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	return &Injector{
		spec:    spec,
		latency: spec.latency(),
		kinds:   spec.kinds(),
	}
}

// Spec returns the injector's plan (zero Spec for nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// draw hashes (seed, site, attempt) to a uniform float64 in [0, 1) and
// a secondary value for kind selection.
func (in *Injector) draw(site string, attempt int) (float64, uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", in.spec.Seed, site, attempt)
	// FNV-1a's trailing bytes barely reach the top bits (one multiply of
	// diffusion), and the attempt number is the suffix — finalize with a
	// splitmix64 remix so every input byte avalanches before we take the
	// high bits as the probability draw. A second remix decorrelates the
	// kind choice from the rate comparison.
	v := mix(h.Sum64())
	return float64(v>>11) / (1 << 53), mix(v)
}

// mix is the splitmix64 finalizer.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// match reports whether the site passes the stage filter.
func (in *Injector) match(site string) bool {
	if len(in.spec.Stages) == 0 {
		return true
	}
	for _, p := range in.spec.Stages {
		if strings.HasPrefix(site, p) {
			return true
		}
	}
	return false
}

// record counts one injection in its fault.{kind} metrics counter and
// emits its span, whose site attribute carries the per-site detail.
func (in *Injector) record(ctx context.Context, site string, kind Kind) {
	obs.Add("fault."+kind.String(), 1)
	_, sp := obs.Start(ctx, "fault.injected",
		obs.KV("site", site), obs.KV("kind", kind.String()))
	sp.End()
}

// Inject executes the (site, attempt) decision: it returns nil when no
// fault fires, returns an ErrInjected-wrapped error for KindError,
// sleeps (bounded by ctx) for KindLatency, panics for KindPanic, and
// writes the site to stderr and exits the process for KindKill.
// The attempt number is read from ctx (WithAttempt; 0 when unset), so
// repeated decisions at one site can draw independently. Nil-safe.
func (in *Injector) Inject(ctx context.Context, site string) error {
	if in == nil || !in.match(site) {
		return nil
	}
	attempt := AttemptFromContext(ctx)
	p, r := in.draw(site, attempt)
	if p >= in.spec.Rate {
		return nil
	}
	kind := in.kinds[r%uint64(len(in.kinds))]
	in.record(ctx, site, kind)
	switch kind {
	case KindLatency:
		t := time.NewTimer(in.latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s (attempt %d)", site, attempt))
	case KindKill:
		fmt.Fprintf(os.Stderr, "fault: injected kill at %s (attempt %d)\n", site, attempt)
		os.Exit(KillExitCode)
	}
	return fmt.Errorf("%w: %s at %s (attempt %d)", ErrInjected, KindError, site, attempt)
}

// attemptKey carries the draw ordinal through a context.
type attemptKey struct{}

// WithAttempt returns a context marking draw ordinal n (0, the value
// of an unmarked context, is the first draw). The daemon marks each
// computation it leads with its sequence number, so repeated requests
// on one route draw independently; sweep sites run once and draw 0.
func WithAttempt(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, attemptKey{}, n)
}

// AttemptFromContext returns the attempt number in ctx (0 if none).
func AttemptFromContext(ctx context.Context) int {
	n, _ := ctx.Value(attemptKey{}).(int)
	return n
}
