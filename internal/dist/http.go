package dist

// The HTTP transport: the same WorkUnit/CellResult messages as the
// subprocess pipes, carried as `POST /run` with an NDJSON response stream.
// Server.Handler is the daemon side (cmd/mcsweepd, mcsim -worker -listen);
// HTTP is the coordinator side. Results stream one line per cell and flush
// as they complete, so the coordinator can checkpoint mid-unit and a lost
// connection forfeits only the cells not yet received.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcs/internal/obs"
	"mcs/internal/scenario"
)

// Server is the instrumented worker-daemon side of the HTTP transport:
//
//	POST /run      WorkUnit in, one CellResult per NDJSON line out
//	GET  /healthz  liveness + uptime, in-flight units, cell tallies, kinds
//	GET  /metrics  Prometheus text exposition of the daemon's counters
//
// The handler executes cells sequentially per request; run one daemon per
// core (or front several behind one address) to scale a host. All
// instrumentation is scrape-side only — cell execution and result bytes
// are untouched by it.
type Server struct {
	reg   *obs.Registry
	start time.Time

	busy        *expvar.Int // work units currently executing
	cellsRun    *expvar.Int
	cellsFailed *expvar.Int
	eventsFired *expvar.Int
}

// NewServer returns a Server with a fresh metrics registry.
func NewServer() *Server {
	s := &Server{reg: obs.NewRegistry(), start: time.Now()}
	s.reg.GaugeFunc("mcsweepd_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.busy = s.reg.Gauge("mcsweepd_busy_workers", "Work units currently executing.")
	s.cellsRun = s.reg.Counter("mcsweepd_cells_run_total", "Cells executed, including failed ones.")
	s.cellsFailed = s.reg.Counter("mcsweepd_cells_failed_total", "Cells whose scenario run errored.")
	s.eventsFired = s.reg.Counter("mcsweepd_events_fired_total", "Kernel events fired across completed cells.")
	s.reg.GaugeFunc("mcsweepd_process_resident_bytes", "Resident set size of the daemon process.",
		obs.ProcessRSSBytes)
	return s
}

// Registry exposes the daemon's metric registry, e.g. so cmd/mcsweepd can
// republish it on the expvar debug surface behind -debug-addr.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var unit WorkUnit
	if err := json.NewDecoder(r.Body).Decode(&unit); err != nil {
		http.Error(w, fmt.Sprintf("bad work unit: %v", err), http.StatusBadRequest)
		return
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	for _, spec := range unit.Cells {
		if r.Context().Err() != nil {
			return // coordinator hung up; stop burning cycles
		}
		res := RunCell(spec)
		s.cellsRun.Add(1)
		if res.Err != "" {
			s.cellsFailed.Add(1)
		} else if res.Result != nil {
			s.eventsFired.Add(int64(res.Result.Events))
		}
		if err := enc.Encode(res); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":             true,
		"kinds":          scenario.List(),
		"uptimeSeconds":  int64(time.Since(s.start).Seconds()),
		"inFlight":       s.busy.Value(),
		"cellsCompleted": s.cellsRun.Value() - s.cellsFailed.Value(),
		"cellsFailed":    s.cellsFailed.Value(),
	})
}

// HTTP is a coordinator-side worker backed by a remote daemon.
type HTTP struct {
	// Base is the daemon's base URL ("http://host:9137").
	Base string
	// Client defaults to http.DefaultClient. Campaigns are long; callers
	// wanting timeouts should cancel the coordinator context instead of
	// setting a per-request timeout that would kill healthy long units.
	Client *http.Client
}

// Name implements Worker.
func (h *HTTP) Name() string { return h.Base }

// Run implements Worker.
func (h *HTTP) Run(ctx context.Context, unit WorkUnit, emit func(CellResult)) error {
	payload, err := json.Marshal(unit)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+"/run", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("dist: %s: %w", h.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("dist: %s: status %s: %s", h.Base, resp.Status, snippet)
	}
	br := bufio.NewReader(resp.Body)
	for range unit.Cells {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("dist: %s: read result: %w", h.Base, err)
		}
		var res CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("dist: %s: bad result line: %w", h.Base, err)
		}
		emit(res)
	}
	return nil
}

// Close implements Worker. HTTP workers hold no per-connection state.
func (h *HTTP) Close() error { return nil }
