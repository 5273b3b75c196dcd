// Package collective models the communication collectives distributed
// Transformer training relies on (paper §2.3): all-reduce above all, plus
// reduce-scatter, all-gather, all-to-all (for the MoE extension) and
// broadcast.
//
// This file holds the analytical cost models the simulator and
// projections use. Their step counts and per-rank volumes are checked
// against executable ring implementations over in-process ranks
// (goroutines connected by channels), which live in functional_test.go.
package collective

import (
	"fmt"
	"math"

	"twocs/internal/hw"
	"twocs/internal/units"
)

// Algorithm selects a collective implementation strategy.
type Algorithm int

// Supported algorithms.
const (
	// Ring is the bandwidth-optimal ring algorithm (Baidu all-reduce):
	// 2(N-1) steps moving bytes/N per step for all-reduce.
	Ring Algorithm = iota
	// Tree is a binary-tree reduce+broadcast: 2·log2(N) steps moving
	// the full buffer, latency-friendly at small sizes.
	Tree
	// InNetwork models processing-in-network switches (SHArP-style,
	// paper §5 Technique 2): ranks push data once to the switch which
	// reduces and returns it — half the wire traffic of a ring.
	InNetwork
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case Tree:
		return "tree"
	case InNetwork:
		return "in-network"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Protocol is one wire protocol of a collective library. Real libraries
// (NCCL/RCCL) pick among low-latency and high-bandwidth protocols per
// message size; the resulting piecewise-linear time-vs-size curve is a
// genuine non-ideality the operator model's affine fit cannot capture
// exactly — one source of the paper's ~11% all-reduce projection error
// (Fig 15c).
type Protocol struct {
	Name string
	// Latency is the protocol's fixed per-message overhead, added to
	// the path's hop latency.
	Latency units.Seconds
	// Eff is the fraction of link bandwidth the protocol sustains.
	Eff float64
}

// DefaultProtocols models an LL / LL128 / Simple protocol family.
func DefaultProtocols() []Protocol {
	return []Protocol{
		{Name: "LL", Latency: 1 * units.Microsecond, Eff: 0.22},
		{Name: "LL128", Latency: 6 * units.Microsecond, Eff: 0.78},
		{Name: "Simple", Latency: 20 * units.Microsecond, Eff: 1.0},
	}
}

// NetPath is the network resource a collective runs over: a bandwidth, a
// per-hop latency, the protocol family the library selects from, and an
// optional saturation ramp for additional small-message bandwidth loss.
type NetPath struct {
	Bandwidth units.ByteRate
	Latency   units.Seconds
	// Protocols is the selectable wire-protocol family; empty means one
	// ideal protocol (zero overhead, full bandwidth).
	Protocols []Protocol
	Ramp      hw.SaturationRamp
}

// Validate rejects unusable paths.
func (p NetPath) Validate() error {
	if p.Bandwidth <= 0 {
		return fmt.Errorf("collective: non-positive bandwidth %v", p.Bandwidth)
	}
	if p.Latency < 0 {
		return fmt.Errorf("collective: negative latency %v", p.Latency)
	}
	for _, pr := range p.Protocols {
		if pr.Eff <= 0 || pr.Eff > 1 || pr.Latency < 0 {
			return fmt.Errorf("collective: invalid protocol %+v", pr)
		}
	}
	return nil
}

// idealProtocol is the fallback for paths that declare no protocols:
// full bandwidth efficiency, no protocol latency. Package-level so the
// hot transfer path does not allocate the fallback per call.
var idealProtocol = []Protocol{{Eff: 1}}

// transfer returns the time to move `bytes` over the path in one message,
// under the fastest applicable protocol.
func (p NetPath) transfer(bytes float64) units.Seconds {
	if bytes <= 0 {
		return p.Latency
	}
	protos := p.Protocols
	if len(protos) == 0 {
		protos = idealProtocol
	}
	ramp := p.Ramp.Eval(bytes)
	best := math.Inf(1)
	for _, pr := range protos {
		t := float64(p.Latency) + float64(pr.Latency) +
			bytes/(float64(p.Bandwidth)*pr.Eff*ramp)
		if t < best {
			best = t
		}
	}
	return units.Seconds(best)
}

// PathForGroup derives the NetPath a collective over `devices` ranks sees
// on the given cluster, with the default protocol family (so small
// messages run at low-latency-protocol bandwidth, the §4.3.5 effect).
func PathForGroup(c hw.Cluster, devices int) (NetPath, error) {
	if err := c.Validate(); err != nil {
		return NetPath{}, err
	}
	if devices < 1 || devices > c.TotalDevices() {
		return NetPath{}, fmt.Errorf("collective: group of %d does not fit cluster of %d devices",
			devices, c.TotalDevices())
	}
	return NetPath{
		Bandwidth: c.GroupBandwidth(devices),
		Latency:   c.GroupLatency(devices),
		Protocols: DefaultProtocols(),
	}, nil
}

// CostModel prices collectives over one path with one algorithm.
type CostModel struct {
	Path NetPath
	Algo Algorithm

	// faultScale stretches every priced collective, set by WithFault;
	// 0 (any model built without it) means healthy. See stepScale.
	faultScale float64
}

// NewCostModel validates and builds a cost model.
func NewCostModel(p NetPath, a Algorithm) (*CostModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch a {
	case Ring, Tree, InNetwork:
	default:
		return nil, fmt.Errorf("collective: unknown algorithm %v", a)
	}
	return &CostModel{Path: p, Algo: a}, nil
}

func (c *CostModel) checkGroup(n int, bytes units.Bytes) error {
	if n < 1 {
		return fmt.Errorf("collective: group size %d < 1", n)
	}
	if bytes < 0 {
		return fmt.Errorf("collective: negative byte count %v", bytes)
	}
	return nil
}

// AllReduce returns the time to all-reduce `bytes` across n ranks.
func (c *CostModel) AllReduce(n int, bytes units.Bytes) (units.Seconds, error) {
	if err := c.checkGroup(n, bytes); err != nil {
		return 0, err
	}
	if n == 1 || bytes == 0 {
		return 0, nil
	}
	b := float64(bytes)
	switch c.Algo {
	case Ring:
		// Reduce-scatter then all-gather: 2(N-1) steps of bytes/N.
		chunk := b / float64(n)
		return c.derate(units.Seconds(2*float64(n-1)*float64(c.Path.transfer(chunk))), nil)
	case Tree:
		steps := 2 * math.Ceil(math.Log2(float64(n)))
		return c.derate(units.Seconds(steps*float64(c.Path.transfer(b))), nil)
	case InNetwork:
		// One push to the switch, one result return.
		return c.derate(2*c.Path.transfer(b), nil)
	}
	return 0, fmt.Errorf("collective: unreachable algorithm %v", c.Algo)
}

// ReduceScatter returns the time to reduce-scatter `bytes` (total input
// per rank) across n ranks: (N-1) ring steps of bytes/N.
func (c *CostModel) ReduceScatter(n int, bytes units.Bytes) (units.Seconds, error) {
	if err := c.checkGroup(n, bytes); err != nil {
		return 0, err
	}
	if n == 1 || bytes == 0 {
		return 0, nil
	}
	chunk := float64(bytes) / float64(n)
	return c.derate(units.Seconds(float64(n-1)*float64(c.Path.transfer(chunk))), nil)
}

// AllGather returns the time to all-gather a result of `bytes` total
// across n ranks: (N-1) ring steps of bytes/N.
func (c *CostModel) AllGather(n int, bytes units.Bytes) (units.Seconds, error) {
	return c.ReduceScatter(n, bytes) // identical ring schedule
}

// AllToAll returns the time for each of n ranks to exchange distinct
// bytes/N shards with every peer (expert parallelism's collective,
// paper §6.1.1): (N-1) steps of bytes/N direct sends.
func (c *CostModel) AllToAll(n int, bytes units.Bytes) (units.Seconds, error) {
	if err := c.checkGroup(n, bytes); err != nil {
		return 0, err
	}
	if n == 1 || bytes == 0 {
		return 0, nil
	}
	shard := float64(bytes) / float64(n)
	return c.derate(units.Seconds(float64(n-1)*float64(c.Path.transfer(shard))), nil)
}

// Broadcast returns the time to pipeline `bytes` from one root to all n
// ranks around a ring.
func (c *CostModel) Broadcast(n int, bytes units.Bytes) (units.Seconds, error) {
	if err := c.checkGroup(n, bytes); err != nil {
		return 0, err
	}
	if n == 1 || bytes == 0 {
		return 0, nil
	}
	// Pipelined ring broadcast: fill time ~ (N-1) latencies + transfer.
	fill := float64(n-1) * float64(c.Path.Latency)
	return c.derate(units.Seconds(fill+float64(c.Path.transfer(float64(bytes)))), nil)
}

// PointToPoint returns the time to send `bytes` from one rank to another
// over the path — the transfer pipeline parallelism puts between stages
// (§6.1.2).
func (c *CostModel) PointToPoint(bytes units.Bytes) (units.Seconds, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("collective: negative byte count %v", bytes)
	}
	if bytes == 0 {
		return 0, nil
	}
	return c.derate(c.Path.transfer(float64(bytes)), nil)
}
