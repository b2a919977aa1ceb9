// Package obs is the repo-wide observability layer: typed progress events
// for runs and campaigns, NDJSON/live-stream sinks, an expvar-backed
// Prometheus metrics registry, and the kernel's per-path dispatch counters.
//
// Determinism contract: observability READS, NEVER WRITES. Nothing in this
// package (and nothing any sink does with an Event) may touch the kernel
// RNG, reorder events, or move a byte of a Result report. Enabling every
// feature here must leave the report byte-identical to a plain run — that
// property is enforced end to end by the observability CI job, and the
// disabled path is benchguard-gated so a nil stats pointer costs one
// predicted branch per kernel step.
//
// The package is a leaf: it imports only the standard library, so the
// kernel (internal/sim), the registry (internal/scenario), and the campaign
// layer (internal/dist) can all depend on it without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Type names one kind of progress event. The taxonomy is deliberately
// small and flat — every consumer (NDJSON files, the /progress stream,
// `mcsim -watch`, the TextSink on mcsim's stderr) switches on it.
type Type string

// The event taxonomy. Campaign events come from the dist coordinator; run
// events from runners executing a single scenario document.
const (
	// RunStarted/RunFinished bracket a single (non-campaign) scenario run.
	RunStarted  Type = "run-started"
	RunFinished Type = "run-finished"
	// CampaignStarted/CampaignResumed/CampaignFinished bracket a
	// distributed sweep campaign; CheckpointFailed reports the one error
	// that aborts a campaign outright.
	CampaignStarted  Type = "campaign-started"
	CampaignResumed  Type = "campaign-resumed"
	CampaignFinished Type = "campaign-finished"
	CheckpointFailed Type = "checkpoint-failed"
	// Cell lifecycle within a campaign. A cell is started each time it is
	// handed to a worker (so retries and speculative clones start it
	// again), finished exactly once, retried on a failed attempt within
	// budget, failed when the budget is exhausted, and speculated when an
	// idle worker clones an in-flight straggler unit.
	CellStarted    Type = "cell-started"
	CellFinished   Type = "cell-finished"
	CellRetried    Type = "cell-retried"
	CellFailed     Type = "cell-failed"
	CellSpeculated Type = "cell-speculated"
	// Worker lifecycle: joined when its pull loop starts, retired when it
	// exits (Err is set when it was lost mid-unit rather than released).
	WorkerJoined  Type = "worker-joined"
	WorkerRetired Type = "worker-retired"
	// CheckpointWritten records one completed cell appended to the resume
	// file.
	CheckpointWritten Type = "checkpoint-written"
	// Heartbeat is the periodic pulse: campaign heartbeats carry done/total
	// and cumulative events fired; run heartbeats carry the kernel's
	// events-fired count and sim-clock.
	Heartbeat Type = "heartbeat"
)

// Event is one typed progress event. It serializes to a single NDJSON line;
// all fields except Type and Cell are omitted when empty, so each event
// type carries only its own facts. Cell is always present (−1 when the
// event is not about a specific cell) so consumers never confuse "cell 0"
// with "no cell".
type Event struct {
	Type Type `json:"type"`
	// T is the wall-clock timestamp in Unix milliseconds. Progress events
	// are not part of any report, so wall time is fine here; sinks stamp it
	// on emit when the producer leaves it zero.
	T int64 `json:"t,omitempty"`
	// Cell is the campaign grid index the event is about, or −1.
	Cell int    `json:"cell"`
	Key  string `json:"key,omitempty"`
	// Worker names the fleet member involved, if any.
	Worker string `json:"worker,omitempty"`
	// Done/Total track campaign completion (cells resolved / cells overall).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Workers is the fleet size on campaign-started and the live worker
	// count on heartbeats.
	Workers int `json:"workers,omitempty"`
	// Attempt counts observed failures of a cell; Budget is the retry
	// budget it is charged against.
	Attempt int `json:"attempt,omitempty"`
	Budget  int `json:"budget,omitempty"`
	// Events is a kernel events-fired count: the finished cell's count on
	// cell-finished, the cumulative campaign count on heartbeats and
	// campaign-finished, the run count on run events.
	Events uint64 `json:"events,omitempty"`
	// SimMS is the kernel sim-clock in virtual milliseconds (run-scoped
	// events only).
	SimMS int64 `json:"simMs,omitempty"`
	// Err carries the failure classification or message of failure-flavored
	// events.
	Err string `json:"error,omitempty"`
	// Msg carries free-form context (a checkpoint path, a scenario kind).
	Msg string `json:"msg,omitempty"`
}

// String renders the event as the human-readable one-liner the text
// boundary prints. The failure-flavored renderings are the exact lines
// `mcsim -distributed` has always printed on stderr, so scripts that grep
// them keep working.
func (e Event) String() string {
	switch e.Type {
	case RunStarted:
		return fmt.Sprintf("obs: run started: %s seed in document", e.Msg)
	case RunFinished:
		return fmt.Sprintf("obs: run finished: %d events, sim-clock %dms", e.Events, e.SimMS)
	case CampaignStarted:
		return fmt.Sprintf("dist: campaign started: %d cells across %d workers", e.Total, e.Workers)
	case CampaignResumed:
		return fmt.Sprintf("dist: resumed %d/%d cells from %s", e.Done, e.Total, e.Msg)
	case CampaignFinished:
		return fmt.Sprintf("dist: campaign finished: %d/%d cells, %d failed, %d events", e.Done, e.Total, e.Attempt, e.Events)
	case CheckpointFailed:
		return fmt.Sprintf("dist: checkpoint write failed, aborting campaign: %s", e.Err)
	case CellStarted:
		return fmt.Sprintf("dist: cell %d (%s) started on %s", e.Cell, e.Key, e.Worker)
	case CellFinished:
		return fmt.Sprintf("dist: cell %d (%s) finished on %s (%d/%d)", e.Cell, e.Key, e.Worker, e.Done, e.Total)
	case CellRetried:
		return fmt.Sprintf("dist: cell %d (%s) failed (%s), retry %d/%d", e.Cell, e.Key, e.Err, e.Attempt, e.Budget)
	case CellFailed:
		return fmt.Sprintf("dist: cell %d (%s) failed permanently after %d attempts: %s", e.Cell, e.Key, e.Attempt, e.Err)
	case CellSpeculated:
		return fmt.Sprintf("dist: cell %d (%s) speculatively re-dispatched to %s", e.Cell, e.Key, e.Worker)
	case WorkerJoined:
		return fmt.Sprintf("dist: worker %s joined", e.Worker)
	case WorkerRetired:
		if e.Err != "" {
			return fmt.Sprintf("dist: worker %s lost mid-unit: %s", e.Worker, e.Err)
		}
		return fmt.Sprintf("dist: worker %s retired", e.Worker)
	case CheckpointWritten:
		return fmt.Sprintf("dist: checkpoint: cell %d (%s) recorded", e.Cell, e.Key)
	case Heartbeat:
		if e.Total > 0 {
			return fmt.Sprintf("dist: heartbeat: %d/%d cells, %d events, %d workers", e.Done, e.Total, e.Events, e.Workers)
		}
		return fmt.Sprintf("obs: heartbeat: %d events, sim-clock %dms", e.Events, e.SimMS)
	default:
		return fmt.Sprintf("obs: %s", e.Type)
	}
}

// Notable reports whether the event belongs to the quiet human-readable
// subset — the conditions worth a line on stderr (resume, retries,
// permanent failures, lost workers, checkpoint aborts). TextSink filters
// on it by default so stderr stays quiet while NDJSON sinks get the full
// firehose.
func (e Event) Notable() bool {
	switch e.Type {
	case CampaignResumed, CellRetried, CellFailed, CheckpointFailed:
		return true
	case WorkerRetired:
		return e.Err != "" // only losses were reported before
	default:
		return false
	}
}

// Sink consumes progress events. Emit must be safe for concurrent use; it
// must never block campaign progress for long (sinks that fan out to slow
// consumers shed them instead of stalling, see Stream).
type Sink interface {
	Emit(Event)
}

// stamp fills the wall-clock field if the producer left it zero.
func stamp(ev *Event) {
	if ev.T == 0 {
		ev.T = time.Now().UnixMilli()
	}
}

// NDJSON is a Sink serializing one JSON line per event to an io.Writer —
// the `mcsim -progress file` format and the payload of the /progress
// stream. Lines are written atomically under a mutex, so concurrent emits
// cannot interleave bytes.
type NDJSON struct {
	mu sync.Mutex
	w  io.Writer
}

// NewNDJSON returns an NDJSON sink writing to w.
func NewNDJSON(w io.Writer) *NDJSON { return &NDJSON{w: w} }

// Emit implements Sink.
func (s *NDJSON) Emit(ev Event) {
	stamp(&ev)
	line, err := json.Marshal(ev)
	if err != nil {
		return // an unmarshalable event is a programming error; drop it
	}
	line = append(line, '\n')
	s.mu.Lock()
	s.w.Write(line)
	s.mu.Unlock()
}

// TextSink renders events as human-readable lines — the one boundary where
// typed events become strings, shared by the stdio and HTTP transports.
// With Verbose unset only Notable events print, matching the verbosity of
// the free-form status lines this sink replaces.
type TextSink struct {
	mu sync.Mutex
	// W receives one rendered line per event.
	W io.Writer
	// Verbose prints every event instead of the Notable subset.
	Verbose bool
}

// Emit implements Sink.
func (s *TextSink) Emit(ev Event) {
	if !s.Verbose && !ev.Notable() {
		return
	}
	s.mu.Lock()
	fmt.Fprintln(s.W, ev.String())
	s.mu.Unlock()
}

// multi fans one event out to several sinks in order.
type multi []Sink

func (m multi) Emit(ev Event) {
	stamp(&ev) // one timestamp for every sink
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi combines sinks into one. Nil sinks are skipped; zero live sinks
// yield nil, which producers treat as "disabled".
func Multi(sinks ...Sink) Sink {
	live := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
