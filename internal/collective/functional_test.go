package collective

import (
	"fmt"
	"sync"
)

// This file holds executable collective implementations over in-process
// ranks: the data-moving references the cost models in cost.go are
// checked against. Each rank runs as a goroutine connected to its right
// neighbour by a channel, exactly the ring dataflow of the wire
// algorithms. Tests use these to validate (a) numerical correctness —
// every rank ends with the true reduction — and (b) the step counts and
// per-rank wire volumes the analytical cost models assume.

// Stats records what one functional collective execution actually did.
type Stats struct {
	// Steps is the number of synchronous communication rounds.
	Steps int
	// MaxBytesPerRank is the largest number of payload bytes any single
	// rank transmitted, assuming 4-byte elements.
	MaxBytesPerRank float64
	// Messages is the total number of point-to-point messages sent.
	Messages int
}

// chunkBounds splits length n into p contiguous chunks; chunk i spans
// [lo,hi). Chunks differ by at most one element, and trailing chunks may
// be empty when n < p.
func chunkBounds(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// validateUniform rejects rank sets whose buffers disagree in length
// before any ring goroutine is spawned. A ragged buffer would mis-slice
// the chunkBounds windows mid-ring — panicking a rank goroutine or
// silently corrupting the reduction — so every reducing collective
// checks up front and returns a plain error instead.
func validateUniform(inputs [][]float64) (width int, err error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("collective: no ranks")
	}
	width = len(inputs[0])
	for r, in := range inputs {
		if len(in) != width {
			return 0, fmt.Errorf("collective: rank %d has length %d, want %d", r, len(in), width)
		}
	}
	return width, nil
}

// RingAllReduce sums the per-rank input vectors using the bandwidth-
// optimal ring algorithm (reduce-scatter followed by all-gather) and
// returns each rank's final buffer plus execution statistics. All inputs
// must share one length. Inputs are not mutated.
func RingAllReduce(inputs [][]float64) ([][]float64, Stats, error) {
	n := len(inputs)
	width, err := validateUniform(inputs)
	if err != nil {
		return nil, Stats{}, err
	}
	bufs := make([][]float64, n)
	for r := range inputs {
		bufs[r] = append([]float64(nil), inputs[r]...)
	}
	if n == 1 {
		return bufs, Stats{}, nil
	}

	// Each round, rank r sends one chunk to rank (r+1)%n. Channels are
	// buffered by one message so all sends in a round can proceed before
	// the receives, making each round a lock-step exchange.
	chans := make([]chan []float64, n)
	for i := range chans {
		chans[i] = make(chan []float64, 1)
	}
	var mu sync.Mutex
	st := Stats{}
	bytesSent := make([]float64, n)

	round := func(chunkOf func(rank int) int, reduce bool) {
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer wg.Done()
				ci := chunkOf(r)
				lo, hi := chunkBounds(width, n, ci)
				msg := append([]float64(nil), bufs[r][lo:hi]...)
				chans[(r+1)%n] <- msg
				mu.Lock()
				bytesSent[r] += 4 * float64(hi-lo)
				st.Messages++
				mu.Unlock()
			}(r)
		}
		wg.Wait()
		// Receive phase: rank r receives the chunk its left neighbour
		// sent and either accumulates (reduce-scatter) or copies
		// (all-gather).
		var wg2 sync.WaitGroup
		wg2.Add(n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer wg2.Done()
				left := (r - 1 + n) % n
				ci := chunkOf(left)
				lo, _ := chunkBounds(width, n, ci)
				msg := <-chans[r]
				if reduce {
					for i, v := range msg {
						bufs[r][lo+i] += v
					}
				} else {
					copy(bufs[r][lo:lo+len(msg)], msg)
				}
			}(r)
		}
		wg2.Wait()
		st.Steps++
	}

	// Reduce-scatter: in round s, rank r sends chunk (r-s+n)%n.
	for s := 0; s < n-1; s++ {
		round(func(r int) int { return ((r-s)%n + n) % n }, true)
	}
	// All-gather: in round s, rank r sends chunk (r+1-s+n)%n — the chunk
	// it fully reduced (s=0) and then the ones it received.
	for s := 0; s < n-1; s++ {
		round(func(r int) int { return ((r+1-s)%n + n) % n }, false)
	}

	for _, b := range bytesSent {
		if b > st.MaxBytesPerRank {
			st.MaxBytesPerRank = b
		}
	}
	return bufs, st, nil
}

// RingAllGather concatenates per-rank shards so every rank ends with all
// shards in rank order. Shards may have differing lengths.
func RingAllGather(shards [][]float64) ([][]float64, Stats, error) {
	n := len(shards)
	if n == 0 {
		return nil, Stats{}, fmt.Errorf("collective: no ranks")
	}
	// Assemble the reference result once; the ring moves shard (r-s)
	// from rank r to r+1 each round. Possession is tracked in an explicit
	// bitmap rather than by nil-checking the shard slices: an empty shard
	// is a legal zero-length value, and a nil check would misreport it as
	// "missing" at the end of the ring.
	have := make([][][]float64, n) // have[r][i] = shard i if held[r][i]
	held := make([][]bool, n)
	for r := range shards {
		have[r] = make([][]float64, n)
		held[r] = make([]bool, n)
		have[r][r] = append([]float64(nil), shards[r]...)
		held[r][r] = true
	}
	st := Stats{}
	bytesSent := make([]float64, n)
	for s := 0; s < n-1; s++ {
		moved := make([][]float64, n)
		for r := 0; r < n; r++ {
			ci := ((r-s)%n + n) % n
			moved[(r+1)%n] = have[r][ci]
			bytesSent[r] += 4 * float64(len(have[r][ci]))
			st.Messages++
		}
		for r := 0; r < n; r++ {
			ci := ((r-1-s)%n + n) % n
			have[r][ci] = moved[r]
			held[r][ci] = true
		}
		st.Steps++
	}
	out := make([][]float64, n)
	for r := 0; r < n; r++ {
		for i := 0; i < n; i++ {
			if !held[r][i] {
				return nil, Stats{}, fmt.Errorf("collective: rank %d missing shard %d", r, i)
			}
			out[r] = append(out[r], have[r][i]...)
		}
	}
	for _, b := range bytesSent {
		if b > st.MaxBytesPerRank {
			st.MaxBytesPerRank = b
		}
	}
	return out, st, nil
}

// AllToAll exchanges shard matrices: send[r][p] is the vector rank r holds
// for rank p; the result recv[p][r] = send[r][p].
func AllToAll(send [][][]float64) ([][][]float64, Stats, error) {
	n := len(send)
	if n == 0 {
		return nil, Stats{}, fmt.Errorf("collective: no ranks")
	}
	for r := range send {
		if len(send[r]) != n {
			return nil, Stats{}, fmt.Errorf("collective: rank %d has %d shards, want %d", r, len(send[r]), n)
		}
	}
	recv := make([][][]float64, n)
	st := Stats{}
	bytesSent := make([]float64, n)
	for p := 0; p < n; p++ {
		recv[p] = make([][]float64, n)
		for r := 0; r < n; r++ {
			recv[p][r] = append([]float64(nil), send[r][p]...)
			if r != p {
				bytesSent[r] += 4 * float64(len(send[r][p]))
				st.Messages++
			}
		}
	}
	st.Steps = n - 1
	for _, b := range bytesSent {
		if b > st.MaxBytesPerRank {
			st.MaxBytesPerRank = b
		}
	}
	return recv, st, nil
}

// RingReduceScatter sums the per-rank inputs and leaves rank r holding
// only chunk r of the reduction (the first half of a ring all-reduce).
// Returns each rank's owned chunk.
func RingReduceScatter(inputs [][]float64) ([][]float64, Stats, error) {
	n := len(inputs)
	width, err := validateUniform(inputs)
	if err != nil {
		return nil, Stats{}, err
	}
	bufs := make([][]float64, n)
	for r := range inputs {
		bufs[r] = append([]float64(nil), inputs[r]...)
	}
	st := Stats{}
	bytesSent := make([]float64, n)
	if n > 1 {
		// Synchronous ring rounds: in round s, rank r sends chunk
		// (r-s) mod n to rank r+1, which accumulates it.
		for s := 0; s < n-1; s++ {
			type msg struct {
				to, chunk int
				data      []float64
			}
			msgs := make([]msg, 0, n)
			for r := 0; r < n; r++ {
				ci := ((r-s)%n + n) % n
				lo, hi := chunkBounds(width, n, ci)
				msgs = append(msgs, msg{
					to: (r + 1) % n, chunk: ci,
					data: append([]float64(nil), bufs[r][lo:hi]...),
				})
				bytesSent[r] += 4 * float64(hi-lo)
				st.Messages++
			}
			for _, m := range msgs {
				lo, _ := chunkBounds(width, n, m.chunk)
				for i, v := range m.data {
					bufs[m.to][lo+i] += v
				}
			}
			st.Steps++
		}
	}
	// Rank r's fully reduced chunk is (r+1) mod n.
	out := make([][]float64, n)
	for r := 0; r < n; r++ {
		ci := (r + 1) % n
		lo, hi := chunkBounds(width, n, ci)
		out[r] = append([]float64(nil), bufs[r][lo:hi]...)
	}
	for _, b := range bytesSent {
		if b > st.MaxBytesPerRank {
			st.MaxBytesPerRank = b
		}
	}
	return out, st, nil
}

// Broadcast copies root's buffer to every rank via a pipelined ring.
func Broadcast(root int, data []float64, n int) ([][]float64, Stats, error) {
	if n < 1 {
		return nil, Stats{}, fmt.Errorf("collective: no ranks")
	}
	if root < 0 || root >= n {
		return nil, Stats{}, fmt.Errorf("collective: root %d out of range [0,%d)", root, n)
	}
	out := make([][]float64, n)
	st := Stats{}
	for i := 0; i < n; i++ {
		out[i] = append([]float64(nil), data...)
	}
	if n > 1 {
		st.Steps = n - 1
		st.Messages = n - 1
		st.MaxBytesPerRank = 4 * float64(len(data))
	}
	return out, st, nil
}
