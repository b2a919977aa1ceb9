// Distsweep demonstrates — and proves — the distributed sweep contract
// (internal/dist): one campaign is run three ways — through the in-process
// "sweep" meta-scenario, through a coordinator with an in-process fleet,
// and through a coordinator whose workers are real HTTP daemons — and the
// three combined reports are compared byte for byte. Any divergence exits
// non-zero, which is why CI runs this example as its distributed smoke job.
//
//	go run ./examples/distsweep
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"

	"mcs/internal/dist"
	"mcs/internal/scenario"

	// Ecosystem packages register the campaign's scenario kinds.
	_ "mcs/internal/banking"
	_ "mcs/internal/opendc"
)

// campaign is a 3×2 capacity-planning portfolio over the datacenter kind —
// the same shape as examples/sweep/portfolio.json, shrunk for smoke speed.
const campaign = `{
  "kind": "sweep", "seed": 42,
  "base": {
    "kind": "datacenter", "machines": 8, "rackSize": 4,
    "workload": {"jobs": 120, "pattern": "bursty"},
    "scheduler": {"queue": "fcfs", "placement": "firstfit"},
    "horizonSeconds": 43200
  },
  "grid": {
    "/machines": [8, 16, 32],
    "/scheduler/queue": ["fcfs", "sjf"]
  }
}`

func main() {
	if err := prove(); err != nil {
		fmt.Fprintln(os.Stderr, "distsweep:", err)
		os.Exit(1)
	}
}

func prove() error {
	// 1. Reference: the in-process sweep path.
	res, err := scenario.RunDocument(json.RawMessage(campaign))
	if err != nil {
		return err
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("in-process sweep: %d cells, %d events\n", len(res.Cells), res.Events)

	// 2. Distributed, in-process fleet: 3 workers, per-cell shards.
	local, err := runThrough("local fleet", []dist.Worker{
		&dist.Local{ID: 0}, &dist.Local{ID: 1}, &dist.Local{ID: 2},
	})
	if err != nil {
		return err
	}
	if string(local) != string(want) {
		return fmt.Errorf("local-fleet report diverged:\n got %s\nwant %s", local, want)
	}

	// 3. Distributed, HTTP fleet: two real daemons on loopback — the same
	// handler cmd/mcsweepd serves.
	var fleet []dist.Worker
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, dist.NewServer().Handler())
		fleet = append(fleet, &dist.HTTP{Base: "http://" + ln.Addr().String()})
	}
	remote, err := runThrough("HTTP fleet", fleet)
	if err != nil {
		return err
	}
	if string(remote) != string(want) {
		return fmt.Errorf("HTTP-fleet report diverged:\n got %s\nwant %s", remote, want)
	}

	fmt.Println("all three reports are byte-identical")
	return nil
}

func runThrough(name string, fleet []dist.Worker) ([]byte, error) {
	coord, err := dist.NewCoordinator(fleet, dist.Options{ShardSize: 1})
	if err != nil {
		return nil, err
	}
	res, fails, err := coord.Run(context.Background(), json.RawMessage(campaign))
	if err != nil {
		return nil, err
	}
	if len(fails) > 0 {
		return nil, fmt.Errorf("%s: %d cells failed: %+v", name, len(fails), fails)
	}
	fmt.Printf("%-16s %d cells across %d workers, merged in grid order\n", name+":", len(res.Cells), len(fleet))
	return json.Marshal(res)
}
