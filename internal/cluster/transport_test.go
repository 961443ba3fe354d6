package cluster

import (
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/graph"
	"fastppv/internal/telemetry"
)

// TestStreamTransportTornFrame feeds the client torn frames instead of
// replies: Partial must return an error promptly — never a panic, never a
// hang — after exactly one re-dial, and the transport must stay usable for
// further calls.
func TestStreamTransportTornFrame(t *testing.T) {
	_, shards := testCluster(t, 1)
	shards[0].hook = func(int, *api.PartialRequest) fault { return fault{tear: true} }

	tr := newStreamTransport(shards[0].URL, 0, 800*time.Millisecond, telemetry.NopLogger())
	defer tr.Close()

	node := graph.NodeID(1)
	for i := 1; i <= 2; i++ {
		start := time.Now()
		_, err := tr.Partial(&api.PartialRequest{Query: &node}, "")
		if err == nil {
			t.Fatalf("call %d: torn stream produced a response", i)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("call %d took %v, transport hung on torn frames", i, d)
		}
		// A second consecutive failure is a fault: the stream each call found
		// (or dialled) plus one re-dial, never a third.
		if got := shards[0].upgrades.Load(); got != int64(2*i) {
			t.Fatalf("after call %d the shard accepted %d streams, want %d", i, got, 2*i)
		}
	}
	st := tr.Stats()
	if st.StreamConnected {
		t.Errorf("transport still claims a live stream after torn frames: %+v", st)
	}
}
