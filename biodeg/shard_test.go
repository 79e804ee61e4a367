package biodeg

import (
	"context"
	"encoding/json"
	"testing"
)

// TestCoordinatorLoopbackByteIdentical: the same sweep through a
// coordinator session (loopback worker only, small lease batches) and
// through a plain session must agree byte for byte — the merge-identity
// contract every multi-worker deployment inherits.
func TestCoordinatorLoopbackByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	ctx := context.Background()
	local := New(Config{})
	sharded := New(Config{Coordinator: true, ShardBatch: 2})

	want, err := local.ALUDepth(ctx, Organic(), 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.ALUDepth(ctx, Organic(), 6)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Errorf("sharded ALU sweep diverged from local:\n got %s\nwant %s", gb, wb)
	}

	st := sharded.ShardStatus()
	if !st.Enabled || st.Leases < 3 {
		t.Errorf("coordinator status = %+v, want enabled with >= 3 leases (6 points / batch 2)", st)
	}
	if len(st.Peers) != 1 || st.Peers[0].Name != "loopback" {
		t.Errorf("peers = %+v, want the loopback worker only", st.Peers)
	}
	if off := local.ShardStatus(); off.Enabled {
		t.Errorf("plain session reports sharding enabled: %+v", off)
	}
}

// TestShardExecThroughSession: Session.ShardExec binds the session
// config before evaluating, so its digest check matches what a worker
// daemon would enforce.
func TestShardExecThroughSession(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	ctx := context.Background()
	s := New(Config{})
	res, err := s.ShardExec(ctx, &ShardRequest{Kind: "alu-depth", MaxStages: 3, Indices: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Index != 0 || res.Points[1].Index != 2 {
		t.Fatalf("result = %+v", res)
	}
	for _, p := range res.Points {
		if len(p.Value) == 0 || p.Key == "" {
			t.Errorf("point %d missing key or value: %+v", p.Index, p)
		}
	}
}
