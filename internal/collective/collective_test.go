package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twocs/internal/hw"
	"twocs/internal/units"
)

func testPath() NetPath {
	return NetPath{
		Bandwidth: units.GBps(150),
		Latency:   2 * units.Microsecond,
		Ramp:      hw.SaturationRamp{Half: 4 * units.MiB},
	}
}

func ringModel(t *testing.T) *CostModel {
	t.Helper()
	m, err := NewCostModel(testPath(), Ring)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCostModelValidation(t *testing.T) {
	if _, err := NewCostModel(NetPath{}, Ring); err == nil {
		t.Error("zero-bandwidth path accepted")
	}
	if _, err := NewCostModel(NetPath{Bandwidth: 1, Latency: -1}, Ring); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewCostModel(testPath(), Algorithm(42)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAllReduceEdgeCases(t *testing.T) {
	m := ringModel(t)
	if tt, err := m.AllReduce(1, units.Bytes(1e9)); err != nil || tt != 0 {
		t.Errorf("single-rank AR = %v,%v; want 0,nil", tt, err)
	}
	if tt, err := m.AllReduce(8, 0); err != nil || tt != 0 {
		t.Errorf("zero-byte AR = %v,%v; want 0,nil", tt, err)
	}
	if _, err := m.AllReduce(0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := m.AllReduce(4, -1); err == nil {
		t.Error("negative bytes accepted")
	}
}

func TestRingAllReduceApproachesBusBandwidthBound(t *testing.T) {
	// For very large messages the ring all-reduce must approach
	// 2(N-1)/N · bytes / linkBW.
	m := ringModel(t)
	n := 4
	bytes := units.Bytes(10 * units.Giga)
	got, err := m.AllReduce(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * float64(n-1) / float64(n) * float64(bytes) / float64(testPath().Bandwidth)
	if float64(got) < bound {
		t.Errorf("AR time %v beat the bandwidth bound %v", got, units.Seconds(bound))
	}
	if float64(got) > 1.1*bound {
		t.Errorf("large AR time %v should be within 10%% of bound %v", got, units.Seconds(bound))
	}
}

func TestSmallMessagesRunBelowPeakBandwidth(t *testing.T) {
	// The saturation ramp must make small all-reduces disproportionately
	// slow — the Fig 11 artifact.
	m := ringModel(t)
	small, err := m.BusBandwidth(4, units.Bytes(256*units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.BusBandwidth(4, units.Bytes(1*units.Giga))
	if err != nil {
		t.Fatal(err)
	}
	if float64(small) > 0.5*float64(large) {
		t.Errorf("small-message bus bw %v should be far below large-message %v", small, large)
	}
	if float64(large) > float64(units.GBps(150)) {
		t.Errorf("bus bw %v exceeds link capability", large)
	}
}

func TestTreeBeatsRingAtTinySizes(t *testing.T) {
	// Rings pay 2(N-1) latencies; trees pay 2·log2(N). At tiny sizes
	// with many ranks the tree must win, at large sizes the ring must.
	tree, err := NewCostModel(testPath(), Tree)
	if err != nil {
		t.Fatal(err)
	}
	ring := ringModel(t)
	n := 64
	tinyT, _ := tree.AllReduce(n, 1024)
	tinyR, _ := ring.AllReduce(n, 1024)
	if tinyT >= tinyR {
		t.Errorf("tree %v should beat ring %v at 1KiB across %d ranks", tinyT, tinyR, n)
	}
	bigT, _ := tree.AllReduce(n, units.Bytes(units.Giga))
	bigR, _ := ring.AllReduce(n, units.Bytes(units.Giga))
	if bigR >= bigT {
		t.Errorf("ring %v should beat tree %v at 1GB", bigR, bigT)
	}
}

func TestInNetworkHalvesWireTraffic(t *testing.T) {
	ring := ringModel(t)
	pin, err := NewCostModel(testPath(), InNetwork)
	if err != nil {
		t.Fatal(err)
	}
	bytes := units.Bytes(units.Giga)
	wr, err := ring.WireBytesPerRank(16, bytes)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := pin.WireBytesPerRank(16, bytes)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5: PIN provides a ~2× effective bandwidth benefit because
	// ring all-reduce transmits twice as much data.
	ratio := float64(wr) / float64(wp)
	if ratio < 1.8 || ratio > 2.0 {
		t.Errorf("ring/PIN wire ratio = %v, want ~2 (is %v vs %v)", ratio, wr, wp)
	}
}

func TestReduceScatterAllGatherComposeToAllReduce(t *testing.T) {
	m := ringModel(t)
	n := 8
	bytes := units.Bytes(64 * units.MiB)
	rs, err := m.ReduceScatter(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := m.AllGather(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := m.AllReduce(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rs+ag-ar)) > 1e-12 {
		t.Errorf("RS+AG = %v, AR = %v; ring AR must equal their sum", rs+ag, ar)
	}
}

func TestAllToAllAndBroadcast(t *testing.T) {
	m := ringModel(t)
	a2a, err := m.AllToAll(8, units.Bytes(64*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if a2a <= 0 {
		t.Error("all-to-all must take time")
	}
	bc, err := m.Broadcast(8, units.Bytes(64*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if bc <= 0 {
		t.Error("broadcast must take time")
	}
	if tt, _ := m.AllToAll(1, 100); tt != 0 {
		t.Error("single-rank all-to-all must be free")
	}
}

func TestPathForGroup(t *testing.T) {
	c := hw.MI210Cluster(8, 1.0/8)
	intra, err := PathForGroup(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := PathForGroup(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if intra.Bandwidth <= inter.Bandwidth {
		t.Error("intra-node path must be faster than inter-node")
	}
	if _, err := PathForGroup(c, 1000); err == nil {
		t.Error("oversized group accepted")
	}
	if _, err := PathForGroup(hw.Cluster{}, 1); err == nil {
		t.Error("invalid cluster accepted")
	}
}

// --- functional implementations ---

func TestRingAllReduceFunctionalCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, width := range []int{1, 5, 16, 100} {
			inputs := make([][]float64, n)
			want := make([]float64, width)
			for r := range inputs {
				inputs[r] = make([]float64, width)
				for i := range inputs[r] {
					inputs[r][i] = rng.NormFloat64()
					want[i] += inputs[r][i]
				}
			}
			outs, st, err := RingAllReduce(inputs)
			if err != nil {
				t.Fatalf("n=%d width=%d: %v", n, width, err)
			}
			for r := range outs {
				for i := range want {
					if math.Abs(outs[r][i]-want[i]) > 1e-9 {
						t.Fatalf("n=%d width=%d rank=%d elem=%d: got %v want %v",
							n, width, r, i, outs[r][i], want[i])
					}
				}
			}
			if n > 1 && st.Steps != 2*(n-1) {
				t.Errorf("n=%d: %d steps, want %d", n, st.Steps, 2*(n-1))
			}
		}
	}
}

func TestRingAllReduceDoesNotMutateInputs(t *testing.T) {
	inputs := [][]float64{{1, 2}, {3, 4}}
	if _, _, err := RingAllReduce(inputs); err != nil {
		t.Fatal(err)
	}
	if inputs[0][0] != 1 || inputs[1][1] != 4 {
		t.Error("inputs mutated")
	}
}

func TestRingAllReduceWireVolumeMatchesCostModel(t *testing.T) {
	// The functional ring must transmit exactly the 2·bytes·(N-1)/N per
	// rank that the cost model charges for (for N | width).
	n, width := 4, 1000
	inputs := make([][]float64, n)
	for r := range inputs {
		inputs[r] = make([]float64, width)
	}
	_, st, err := RingAllReduce(inputs)
	if err != nil {
		t.Fatal(err)
	}
	totalBytes := 4.0 * float64(width)
	want := 2 * totalBytes * float64(n-1) / float64(n)
	if math.Abs(st.MaxBytesPerRank-want) > 1e-9 {
		t.Errorf("per-rank wire bytes = %v, want %v", st.MaxBytesPerRank, want)
	}
}

func TestRingAllReduceErrors(t *testing.T) {
	if _, _, err := RingAllReduce(nil); err == nil {
		t.Error("no ranks accepted")
	}
	if _, _, err := RingAllReduce([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged inputs accepted")
	}
}

func TestRingAllGatherFunctional(t *testing.T) {
	shards := [][]float64{{1, 2}, {3}, {4, 5, 6}}
	outs, st, err := RingAllGather(shards)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for r := range outs {
		if len(outs[r]) != len(want) {
			t.Fatalf("rank %d got %v", r, outs[r])
		}
		for i := range want {
			if outs[r][i] != want[i] {
				t.Fatalf("rank %d got %v, want %v", r, outs[r], want)
			}
		}
	}
	if st.Steps != 2 {
		t.Errorf("steps = %d, want n-1 = 2", st.Steps)
	}
}

func TestAllToAllFunctional(t *testing.T) {
	// send[r][p] = {r*10 + p}
	n := 3
	send := make([][][]float64, n)
	for r := 0; r < n; r++ {
		send[r] = make([][]float64, n)
		for p := 0; p < n; p++ {
			send[r][p] = []float64{float64(r*10 + p)}
		}
	}
	recv, _, err := AllToAll(send)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		for r := 0; r < n; r++ {
			if got := recv[p][r][0]; got != float64(r*10+p) {
				t.Errorf("recv[%d][%d] = %v, want %v", p, r, got, r*10+p)
			}
		}
	}
	if _, _, err := AllToAll([][][]float64{{{1}}, {{1}}}); err == nil {
		t.Error("ragged send matrix accepted")
	}
}

// Property: functional ring all-reduce matches the serial sum for random
// rank counts and widths.
func TestRingAllReduceProperty(t *testing.T) {
	f := func(nSeed, wSeed uint8, seed int64) bool {
		n := int(nSeed)%6 + 1
		width := int(wSeed)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, width)
		for r := range inputs {
			inputs[r] = make([]float64, width)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(100))
				want[i] += inputs[r][i]
			}
		}
		outs, _, err := RingAllReduce(inputs)
		if err != nil {
			return false
		}
		for r := range outs {
			for i := range want {
				if math.Abs(outs[r][i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cost-model all-reduce time is monotone in bytes and in rank
// count (for fixed bytes, more ranks can only slow a ring down).
func TestAllReduceMonotoneProperty(t *testing.T) {
	m := ringModel(t)
	f := func(b uint32, n uint8) bool {
		bytes := units.Bytes(b%100_000_000 + 1)
		ranks := int(n)%62 + 2
		t1, err1 := m.AllReduce(ranks, bytes)
		t2, err2 := m.AllReduce(ranks, bytes*2)
		t3, err3 := m.AllReduce(ranks+1, bytes)
		return err1 == nil && err2 == nil && err3 == nil && t2 > t1 && t3 >= t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingReduceScatterCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, width := range []int{1, 8, 23} {
			inputs := make([][]float64, n)
			want := make([]float64, width)
			for r := range inputs {
				inputs[r] = make([]float64, width)
				for i := range inputs[r] {
					inputs[r][i] = float64(rng.Intn(20))
					want[i] += inputs[r][i]
				}
			}
			shards, st, err := RingReduceScatter(inputs)
			if err != nil {
				t.Fatalf("n=%d width=%d: %v", n, width, err)
			}
			if n > 1 && st.Steps != n-1 {
				t.Errorf("n=%d: %d steps, want %d", n, st.Steps, n-1)
			}
			// Reassemble: rank r owns chunk (r+1) mod n.
			got := make([]float64, width)
			for r := 0; r < n; r++ {
				ci := (r + 1) % n
				lo, hi := chunkBounds(width, n, ci)
				if hi-lo != len(shards[r]) {
					t.Fatalf("rank %d shard length %d, want %d", r, len(shards[r]), hi-lo)
				}
				copy(got[lo:hi], shards[r])
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d width=%d elem %d: got %v want %v", n, width, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRingReduceScatterErrors(t *testing.T) {
	if _, _, err := RingReduceScatter(nil); err == nil {
		t.Error("no ranks accepted")
	}
	if _, _, err := RingReduceScatter([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged inputs accepted")
	}
}

func TestBroadcastFunctional(t *testing.T) {
	data := []float64{1, 2, 3}
	out, st, err := Broadcast(1, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := range out {
		for i := range data {
			if out[r][i] != data[i] {
				t.Errorf("rank %d elem %d = %v", r, i, out[r][i])
			}
		}
	}
	if st.Steps != 3 {
		t.Errorf("steps = %d, want 3", st.Steps)
	}
	if _, _, err := Broadcast(5, data, 4); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, _, err := Broadcast(0, data, 0); err == nil {
		t.Error("zero ranks accepted")
	}
}

// BusBandwidth returns the effective all-reduce "bus bandwidth" for a
// given size — the figure of merit collective libraries report:
// algbw·2(N-1)/N for rings.
func (c *CostModel) BusBandwidth(n int, bytes units.Bytes) (units.ByteRate, error) {
	t, err := c.AllReduce(n, bytes)
	if err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, nil
	}
	alg := float64(bytes) / float64(t)
	return units.ByteRate(alg * 2 * float64(n-1) / float64(n)), nil
}

// WireBytesPerRank returns the total bytes one rank transmits during an
// all-reduce of `bytes` — 2·bytes·(N-1)/N for rings, bytes for in-network
// reduction. The 2× gap is the advantage the paper attributes to PIN.
func (c *CostModel) WireBytesPerRank(n int, bytes units.Bytes) (units.Bytes, error) {
	if err := c.checkGroup(n, bytes); err != nil {
		return 0, err
	}
	if n == 1 {
		return 0, nil
	}
	switch c.Algo {
	case Ring:
		return units.Bytes(2 * float64(bytes) * float64(n-1) / float64(n)), nil
	case Tree:
		return units.Bytes(2 * float64(bytes)), nil
	case InNetwork:
		return bytes, nil
	}
	return 0, fmt.Errorf("collective: unreachable algorithm %v", c.Algo)
}
