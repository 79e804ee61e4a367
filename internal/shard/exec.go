package shard

import (
	"context"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// Exec evaluates one lease in this process — the worker side of
// POST /v1/shards/exec. The leased indices fan out over the worker
// pool (core.EvalPool) with the same per-point checkpoint keys a local
// sweep uses, so a worker's own journal replays across execution
// styles. Under config.PartialResults a failed point comes back
// annotated instead of failing the lease (mirroring the local sweeps'
// posture). Leases always name the with-wire grid: the wire flag is not
// on the wire, and each answered point carries its key so a
// coordinator holding any other grid rejects the answer.
func Exec(ctx context.Context, req *Request) (*Result, error) {
	if len(req.Indices) == 0 {
		return nil, fmt.Errorf("%w: empty index batch", ErrBadRequest)
	}
	if req.ConfigDigest != "" {
		if d := Digest(config.Get(ctx)); d != req.ConfigDigest {
			return nil, fmt.Errorf("%w: lease bound to %s, worker effective config is %s",
				ErrConfigMismatch, req.ConfigDigest, d)
		}
	}
	t, err := core.TechByName(req.Tech)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	maxStages, minDepth, maxDepth := core.SweepDefaults(req.MaxStages, req.MinDepth, req.MaxDepth)
	g, err := core.SweepGrid(ctx, req.Kind, t, maxStages, minDepth, maxDepth, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	for _, i := range req.Indices {
		if i < 0 || i >= g.N {
			return nil, fmt.Errorf("%w: index %d outside %s grid [0, %d)", ErrBadRequest, i, g.Kind, g.N)
		}
	}
	ctx, sp := obs.Start(ctx, "shard.exec",
		obs.KV("kind", g.Kind), obs.KV("tech", g.Tech), obs.Int("points", len(req.Indices)))
	defer sp.End()

	vals, err := core.EvalPool(ctx, g, req.Indices)
	if err != nil {
		return nil, err
	}
	res := &Result{Version: Version, Kind: g.Kind, Worker: workerName(), Points: make([]PointResult, len(vals))}
	for i, v := range vals {
		res.Points[i] = PointResult{Index: v.Index, Key: g.Key(v.Index), Value: v.Value, Err: v.Err}
	}
	return res, nil
}

// workerName identifies this process in shard results (diagnostics
// only).
func workerName() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s/%d", host, os.Getpid())
}
