package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live completion state of one streaming sweep: total
// and completed rows, completed chunks, and per-worker busy time. The
// grid producer (core.StreamEvolutionGridCtx) brackets it with
// Begin/Finish, and its row loop, listed as worker 0, feeds it once
// per emitted chunk, so a snapshot at any instant answers "how far
// along is this run, how fast, and when will it finish" — served live
// over the debug server's /progress endpoint and emitted as NDJSON
// heartbeats by the CLI's -progress flag. parallel.StreamCtx feeds it
// the same way, one busy tally per pool worker.
//
// Like the Collector, a nil *Progress is a valid no-op: every method
// returns immediately and allocates nothing, so the row loop stays
// instrumented permanently without taxing untracked runs.
//
// Rows and chunks only ever increase between Begin calls, which is what
// makes successive snapshots monotone; Finish freezes the elapsed clock
// so post-run snapshots are stable.
type Progress struct {
	mu         sync.Mutex
	label      string          // guarded by mu
	total      int64           // guarded by mu
	rows       int64           // guarded by mu
	chunks     int64           // guarded by mu
	start      time.Time       // guarded by mu
	started    bool            // guarded by mu
	workerBusy []time.Duration // guarded by mu
	done       bool            // guarded by mu
	complete   bool            // guarded by mu
	reason     string          // guarded by mu
	frozen     time.Duration   // guarded by mu; elapsed at Finish
}

// NewProgress returns an idle Progress; Begin arms it.
func NewProgress() *Progress { return &Progress{} }

// activeProgress is the process-wide progress tracker consulted by the
// grid stream, mirroring the active Collector.
var activeProgress atomic.Pointer[Progress]

// EnableProgress installs p as the process-wide progress tracker;
// EnableProgress(nil) disables tracking.
func EnableProgress(p *Progress) { activeProgress.Store(p) }

// ActiveProgress returns the process-wide progress tracker, or nil when
// tracking is disabled. The nil result is safe to use directly.
func ActiveProgress() *Progress { return activeProgress.Load() }

// Begin resets the tracker for a new stream of total rows and starts
// its clock. A later Begin discards the previous stream's state.
func (p *Progress) Begin(label string, total int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label, p.total = label, total
	p.rows, p.chunks = 0, 0
	p.start, p.started = time.Now(), true
	p.workerBusy = p.workerBusy[:0]
	p.done, p.complete, p.reason = false, false, ""
	p.frozen = 0
	p.mu.Unlock()
}

// SetWorkers sizes the per-worker busy table. A stream producer calls
// it with its worker count once per stream.
func (p *Progress) SetWorkers(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	for len(p.workerBusy) < n {
		p.workerBusy = append(p.workerBusy, 0)
	}
	p.mu.Unlock()
}

// AddRows records n more rows delivered to the sink.
func (p *Progress) AddRows(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.rows += n
	p.mu.Unlock()
}

// ChunkDone records one completed (fully emitted) chunk.
func (p *Progress) ChunkDone() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.chunks++
	p.mu.Unlock()
}

// WorkerBusy adds busy wall time to worker w's tally.
func (p *Progress) WorkerBusy(w int, busy time.Duration) {
	if p == nil || w < 0 {
		return
	}
	p.mu.Lock()
	for len(p.workerBusy) <= w {
		p.workerBusy = append(p.workerBusy, 0)
	}
	p.workerBusy[w] += busy
	p.mu.Unlock()
}

// Finish marks the stream done, freezing the elapsed clock. complete
// and reason mirror the sink trailer's fields, so a Progress snapshot
// and the stream artifact tell one story.
func (p *Progress) Finish(complete bool, reason string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.started && !p.done {
		p.frozen = time.Since(p.start)
	}
	p.done, p.complete, p.reason = true, complete, reason
	p.mu.Unlock()
}

// WorkerUtil is one worker's share of a ProgressSnapshot: cumulative
// busy wall time and its fraction of the stream's elapsed time.
type WorkerUtil struct {
	Worker      int
	Busy        time.Duration
	Utilization float64
}

// ProgressSnapshot is a point-in-time copy of a Progress. Rows, Chunks
// and Elapsed are monotone non-decreasing across successive snapshots
// of one stream; ETA is zero when unknown (no rows yet) or when the
// stream is done.
type ProgressSnapshot struct {
	Label      string
	Total      int64
	Rows       int64
	Chunks     int64
	Elapsed    time.Duration
	RowsPerSec float64
	ETA        time.Duration
	Done       bool
	Complete   bool
	Reason     string
	Workers    []WorkerUtil
}

// Snapshot copies the current progress state and derives the rate and
// ETA estimates. A nil or un-Begun Progress yields the zero snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return ProgressSnapshot{}
	}
	ps := ProgressSnapshot{
		Label: p.label, Total: p.total, Rows: p.rows, Chunks: p.chunks,
		Done: p.done, Complete: p.complete, Reason: p.reason,
	}
	if p.done {
		ps.Elapsed = p.frozen
	} else {
		ps.Elapsed = time.Since(p.start)
	}
	if secs := ps.Elapsed.Seconds(); secs > 0 && ps.Rows > 0 {
		ps.RowsPerSec = float64(ps.Rows) / secs
	}
	if !p.done && ps.RowsPerSec > 0 && ps.Total > ps.Rows {
		ps.ETA = time.Duration(float64(ps.Total-ps.Rows) / ps.RowsPerSec * float64(time.Second))
	}
	ps.Workers = make([]WorkerUtil, len(p.workerBusy))
	for i, busy := range p.workerBusy {
		u := WorkerUtil{Worker: i, Busy: busy}
		if ps.Elapsed > 0 {
			u.Utilization = float64(busy) / float64(ps.Elapsed)
		}
		ps.Workers[i] = u
	}
	return ps
}

// progressJSON is the wire form of a ProgressSnapshot: durations as
// seconds, fixed key order (struct order), workers included.
type progressJSON struct {
	Label      string       `json:"label"`
	Total      int64        `json:"total"`
	Rows       int64        `json:"rows"`
	Chunks     int64        `json:"chunks"`
	ElapsedS   float64      `json:"elapsed_s"`
	RowsPerSec float64      `json:"rows_per_sec"`
	EtaS       float64      `json:"eta_s"`
	Done       bool         `json:"done"`
	Complete   bool         `json:"complete"`
	Reason     string       `json:"reason,omitempty"`
	Workers    []workerJSON `json:"workers,omitempty"`
}

type workerJSON struct {
	Worker      int     `json:"worker"`
	BusyS       float64 `json:"busy_s"`
	Utilization float64 `json:"utilization"`
}

func (ps ProgressSnapshot) wire(withWorkers bool) progressJSON {
	out := progressJSON{
		Label: ps.Label, Total: ps.Total, Rows: ps.Rows, Chunks: ps.Chunks,
		ElapsedS:   ps.Elapsed.Seconds(),
		RowsPerSec: ps.RowsPerSec,
		EtaS:       ps.ETA.Seconds(),
		Done:       ps.Done, Complete: ps.Complete, Reason: ps.Reason,
	}
	if withWorkers {
		for _, wu := range ps.Workers {
			out.Workers = append(out.Workers, workerJSON{
				Worker: wu.Worker, BusyS: wu.Busy.Seconds(), Utilization: wu.Utilization,
			})
		}
	}
	return out
}

// WriteJSON renders the snapshot as one JSON object (the /progress
// endpoint's body): fixed key order, durations as seconds, per-worker
// utilization included.
func (ps ProgressSnapshot) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(ps.wire(true))
}

// WriteHeartbeat renders the snapshot as one NDJSON heartbeat event —
// the line the CLI's -progress flag appends to stderr periodically. The
// per-worker table is omitted to keep the line short; scrape /progress
// for it.
func (ps ProgressSnapshot) WriteHeartbeat(w io.Writer) error {
	hb := struct {
		Event string `json:"event"`
		progressJSON
	}{Event: "progress", progressJSON: ps.wire(false)}
	return json.NewEncoder(w).Encode(hb)
}
