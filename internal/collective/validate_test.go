package collective

import (
	"strings"
	"testing"
)

// These tests pin the up-front buffer validation of the functional
// collectives: ragged rank buffers must come back as plain errors
// before any ring goroutine runs, never as a deadlock, panic, or a
// silently corrupted reduction.

func TestRingAllReduceRejectsRaggedInputs(t *testing.T) {
	_, _, err := RingAllReduce([][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}})
	if err == nil || !strings.Contains(err.Error(), "rank 1 has length 2, want 3") {
		t.Fatalf("ragged all-reduce: err = %v", err)
	}
	if _, _, err := RingAllReduce(nil); err == nil {
		t.Fatal("empty rank set accepted")
	}
}

func TestRingReduceScatterRejectsRaggedInputs(t *testing.T) {
	_, _, err := RingReduceScatter([][]float64{{1}, {2, 3}})
	if err == nil || !strings.Contains(err.Error(), "rank 1 has length 2, want 1") {
		t.Fatalf("ragged reduce-scatter: err = %v", err)
	}
}

func TestRingAllGatherEmptyShard(t *testing.T) {
	// A zero-length shard is a legal value — ranks can own empty
	// partitions when the payload does not divide evenly. The gather
	// must not misreport it as a missing shard.
	out, _, err := RingAllGather([][]float64{{1, 2}, {}, {3}})
	if err != nil {
		t.Fatalf("empty shard rejected: %v", err)
	}
	want := []float64{1, 2, 3}
	for r, got := range out {
		if len(got) != len(want) {
			t.Fatalf("rank %d: got %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: got %v, want %v", r, got, want)
			}
		}
	}
}
