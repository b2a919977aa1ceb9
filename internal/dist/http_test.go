package dist_test

// The HTTP transport carries the same messages as the pipes, so the same
// byte-identity contract must hold through a real HTTP round trip — plus
// the daemon-side error paths and the coordinator's tolerance of a dead
// endpoint.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcs/internal/dist"
)

func TestHTTPWorkersMatchInProcess(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	srv1 := httptest.NewServer(dist.NewServer().Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(dist.NewServer().Handler())
	defer srv2.Close()
	fleet := []dist.Worker{
		&dist.HTTP{Base: srv1.URL, Client: srv1.Client()},
		&dist.HTTP{Base: srv2.URL, Client: srv2.Client()},
	}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("HTTP report diverged:\n got %s\nwant %s", got, want)
	}
}

func TestMixedFleetMatchesInProcess(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	srv := httptest.NewServer(dist.NewServer().Handler())
	defer srv.Close()
	fleet := []dist.Worker{
		&dist.HTTP{Base: srv.URL, Client: srv.Client()},
		&dist.Local{ID: 1},
	}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("mixed-fleet report diverged:\n got %s\nwant %s", got, want)
	}
}

// TestDeadHTTPWorkerIsRetired: a connection-refused endpoint behaves like
// any other lost worker — the rest of the fleet absorbs its cells.
func TestDeadHTTPWorkerIsRetired(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	srv := httptest.NewServer(dist.NewServer().Handler())
	srv.Close() // dead on arrival
	fleet := []dist.Worker{
		&dist.HTTP{Base: srv.URL},
		&dist.Local{ID: 1},
	}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("report diverged with a dead endpoint in the fleet:\n got %s\nwant %s", got, want)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer().Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", resp.StatusCode)
	}

	resp, err = srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", resp.StatusCode)
	}
}

func TestHandlerHealthz(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK    bool     `json:"ok"`
		Kinds []string `json:"kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || len(health.Kinds) == 0 {
		t.Errorf("healthz = %+v, want ok with registered kinds", health)
	}
	found := false
	for _, k := range health.Kinds {
		if k == "banking" {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz kinds %v missing banking", health.Kinds)
	}
}

// TestHTTPWorkerRunDirect exercises the client against the handler without
// the coordinator: one unit, results stream back in order.
func TestHTTPWorkerRunDirect(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer().Handler())
	defer srv.Close()
	w := &dist.HTTP{Base: srv.URL, Client: srv.Client()}
	unit := dist.WorkUnit{ID: 0, Cells: []dist.CellSpec{
		{Index: 0, Key: "a", Seed: 3, Doc: json.RawMessage(`{"kind": "banking", "transactions": 40, "seed": 3}`)},
		{Index: 1, Key: "b", Seed: 4, Doc: json.RawMessage(`{"kind": "nope"}`)},
	}}
	var got []dist.CellResult
	if err := w.Run(context.Background(), unit, func(res dist.CellResult) { got = append(got, res) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d results, want 2", len(got))
	}
	if got[0].Result == nil || got[0].Result.Scenario != "banking" {
		t.Errorf("first result = %+v, want banking envelope", got[0])
	}
	if got[1].Err == "" {
		t.Errorf("unknown-kind cell did not report an error: %+v", got[1])
	}
}
