package hw

import (
	"fmt"

	"twocs/internal/tensor"
	"twocs/internal/units"
)

// Evolution rescales a hardware description to model a future generation.
// The paper's Figures 12 and 13 apply exactly this transform: compute
// FLOPS scale faster than network bandwidth by a historical factor of
// 2-4× per generation step (§4.3.6).
type Evolution struct {
	Name string

	// FlopScale multiplies peak compute throughput.
	FlopScale float64
	// NetScale multiplies every interconnect bandwidth.
	NetScale float64
	// MemBWScale multiplies memory bandwidth; MemCapScale multiplies
	// memory capacity. Both default to NetScale-like conservatism if
	// left at 1.
	MemBWScale  float64
	MemCapScale float64
}

// FlopVsBW returns the relative compute-vs-network scaling ratio, the
// x-axis of the paper's hardware-evolution figures.
func (e Evolution) FlopVsBW() float64 {
	if e.NetScale == 0 {
		return 0
	}
	return e.FlopScale / e.NetScale
}

// Validate rejects non-positive scale factors.
func (e Evolution) Validate() error {
	if e.FlopScale <= 0 || e.NetScale <= 0 || e.MemBWScale <= 0 || e.MemCapScale <= 0 {
		return fmt.Errorf("hw: evolution %q has non-positive scale factor %+v", e.Name, e)
	}
	return nil
}

// Identity is the no-op evolution (today's hardware).
func Identity() Evolution {
	return Evolution{Name: "1x", FlopScale: 1, NetScale: 1, MemBWScale: 1, MemCapScale: 1}
}

// FlopVsBWScenario builds the paper's canonical scenario: compute scales
// `ratio`× faster than the network, with the network held fixed and memory
// bandwidth following compute (GEMMs must stay compute-bound, as the paper
// assumes via >85% FLOPS utilization on large GEMMs).
func FlopVsBWScenario(ratio float64) Evolution {
	return Evolution{
		Name:        fmt.Sprintf("%gx flop-vs-bw", ratio),
		FlopScale:   ratio,
		NetScale:    1,
		MemBWScale:  ratio,
		MemCapScale: 1,
	}
}

// RatioScenario maps a flop-vs-bw ratio onto its hardware scenario,
// naming ratio 1 as the identity evolution ("1x", today's hardware)
// rather than a degenerate "1x flop-vs-bw" scaling. The two are
// numerically identical devices; sharing one spelling here is what
// keeps grids built from ratio lists (CLI -scenarios, the twocsd
// flopbw spec) byte-identical to grids built from PaperScenarios.
func RatioScenario(ratio float64) Evolution {
	//lint:ignore floatcmp exact sentinel: ratio 1 selects the identity scenario by convention
	if ratio == 1 {
		return Identity()
	}
	return FlopVsBWScenario(ratio)
}

// PaperScenarios returns the three hardware points evaluated in Figures
// 12-13: today (1×), and 2×/4× flop-vs-bw.
func PaperScenarios() []Evolution {
	return []Evolution{Identity(), FlopVsBWScenario(2), FlopVsBWScenario(4)}
}

// ApplyDevice returns the device rescaled by the evolution.
func (e Evolution) ApplyDevice(d DeviceSpec) DeviceSpec {
	out := d
	out.Name = fmt.Sprintf("%s@%s", d.Name, e.Name)
	out.Peak = make(map[tensor.DType]units.FLOPSRate, len(d.Peak))
	for dt, r := range d.Peak {
		out.Peak[dt] = units.FLOPSRate(float64(r) * e.FlopScale)
	}
	out.MemBandwidth = units.ByteRate(float64(d.MemBandwidth) * e.MemBWScale)
	out.MemCapacity = units.Bytes(float64(d.MemCapacity) * e.MemCapScale)
	return out
}

func (e Evolution) applyLink(l Link) Link {
	return Link{
		Bandwidth: units.ByteRate(float64(l.Bandwidth) * e.NetScale),
		Latency:   l.Latency,
	}
}

// ApplyNode returns the node rescaled by the evolution.
func (e Evolution) ApplyNode(n Node) Node {
	out := n
	out.Device = e.ApplyDevice(n.Device)
	out.Link = e.applyLink(n.Link)
	out.RingBandwidth = units.ByteRate(float64(n.RingBandwidth) * e.NetScale)
	return out
}

// ApplyCluster returns the cluster rescaled by the evolution.
func (e Evolution) ApplyCluster(c Cluster) Cluster {
	out := c
	out.Node = e.ApplyNode(c.Node)
	out.InterNode = e.applyLink(c.InterNode)
	return out
}
