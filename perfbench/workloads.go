package main

// The four workloads: the scenario documents each one sends through the
// front door, generated from the workload seed, and the set-up that
// materializes what the documents refer to (a trace file, a worker fleet).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcs/internal/banking"
	"mcs/internal/dist"
	"mcs/internal/gaming"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// workloadNames lists the workloads in the order the doc presents them.
var workloadNames = []string{"banking-backlog", "gaming-world", "datacenter-long", "campaign"}

// scale fixes the size of every generated document. full is the measured
// benchmark; smoke is the reduced size the benchmark's own tests run.
type scale struct {
	name             string
	bankingTx        int
	gamingZones      int
	gamingPerHour    float64
	gamingHours      float64
	dcMachines       int
	dcJobs           int
	dcHorizonSeconds float64
	campaignReps     int
}

var (
	fullScale  = scale{"full", 150000, 16, 4000, 24, 256, 2000, 100 * 86400, 10}
	smokeScale = scale{"smoke", 3000, 4, 300, 6, 16, 100, 2 * 86400, 1}
)

func scaleByName(name string) (scale, error) {
	switch name {
	case fullScale.name:
		return fullScale, nil
	case smokeScale.name:
		return smokeScale, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (full, smoke)", name)
}

// docSpec is one scenario document of a pass, with what the traced run
// needs to time the workload-source layer from outside.
type docSpec struct {
	id  string
	raw json.RawMessage
	// synth calls the public generator with the document's parameters;
	// nil when the document replays a trace instead.
	synth func() (*workload.Workload, error)
	// trace is the .mcw file the document replays, empty when synthetic.
	trace string
	// sameAs names the document whose report bytes this one must equal.
	sameAs string
}

// docSeed derives the seed of one document from the workload seed
// (splitmix64), so every document of every workload gets its own stream.
func docSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

func mustJSON(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of plain values are marshalled here
	}
	return raw
}

// autoscalePolicies and autoscalePatterns are the D1 matrix axes.
var (
	autoscalePolicies = []string{"react", "adapt", "hist", "reg", "conpaas", "token", "plan"}
	autoscalePatterns = []string{"flat", "bursty", "diurnal"}
)

// documents generates the documents of one pass of the named workload. It
// is deterministic: the same arguments give the same bytes. dir is where
// set-up writes the files the documents refer to.
func documents(name string, seed int64, sc scale, dir string) ([]docSpec, error) {
	switch name {
	case "banking-backlog":
		s := docSeed(seed, 1)
		tx, share := sc.bankingTx, 0.5
		synth := func() (*workload.Workload, error) {
			return banking.GenerateWorkload(tx, share, rand.New(rand.NewSource(s))), nil
		}
		doc := func(disc string) json.RawMessage {
			return mustJSON(map[string]any{"kind": "banking", "transactions": tx,
				"instantShare": share, "discipline": disc, "seed": s})
		}
		tracePath := filepath.Join(dir, "banking-edf.mcw")
		return []docSpec{
			{id: "edf", raw: doc("edf"), synth: synth},
			{id: "fcfs", raw: doc("fcfs"), synth: synth},
			{id: "trace", trace: tracePath, sameAs: "edf", raw: mustJSON(map[string]any{"kind": "banking",
				"workload":   map[string]any{"trace": tracePath, "format": trace.FormatMCW},
				"discipline": "edf", "seed": s})},
		}, nil
	case "gaming-world":
		s := docSeed(seed, 2)
		world := gaming.WorldConfig{Zones: sc.gamingZones, ZoneCapacity: 100,
			ArrivalPerHour: sc.gamingPerHour, DiurnalAmp: 0.8,
			Horizon: time.Duration(sc.gamingHours * float64(time.Hour)), Seed: s}
		return []docSpec{{id: "world", synth: func() (*workload.Workload, error) {
			return gaming.GenerateSessions(world, rand.New(rand.NewSource(s)))
		}, raw: mustJSON(map[string]any{"kind": "gaming", "zones": world.Zones,
			"zoneCapacity": world.ZoneCapacity, "arrivalPerHour": world.ArrivalPerHour,
			"diurnalAmp": world.DiurnalAmp, "horizonHours": sc.gamingHours, "seed": s})}}, nil
	case "datacenter-long":
		s := docSeed(seed, 3)
		jobs := sc.dcJobs
		return []docSpec{{id: "datacenter", synth: func() (*workload.Workload, error) {
			// The arrival process carries state, so each call resolves
			// a fresh one, as the scenario's own configure does.
			arrival, err := workload.ArrivalByName("bursty")
			if err != nil {
				return nil, err
			}
			shape, err := workload.ShapeByName("bag")
			if err != nil {
				return nil, err
			}
			return workload.Generate(workload.GeneratorConfig{Jobs: jobs, Arrival: arrival, Shape: shape},
				rand.New(rand.NewSource(s)))
		}, raw: mustJSON(map[string]any{
			"kind": "datacenter", "machines": sc.dcMachines, "class": "commodity", "rackSize": 16,
			"workload":  map[string]any{"jobs": jobs, "pattern": "bursty", "shape": "bag"},
			"scheduler": map[string]any{"queue": "sjf", "placement": "bestfit", "mode": "easy"},
			"failures": map[string]any{
				"mtbf":      map[string]any{"dist": "weibull", "shape": 0.6, "mean": 14400},
				"repair":    map[string]any{"dist": "lognormal", "mean": 600},
				"groupSize": map[string]any{"dist": "normal", "mean": 4, "sigma": 2},
				"rackBias":  0.8,
				"slo":       map[string]any{"availability": 0.99, "windowSeconds": 3600},
			},
			"horizonSeconds": sc.dcHorizonSeconds, "seed": s})}}, nil
	case "campaign":
		return []docSpec{{id: "sweep", raw: mustJSON(map[string]any{
			"kind": "sweep", "seed": docSeed(seed, 4),
			"base": map[string]any{"kind": "autoscale", "horizonHours": 24,
				"provisioningDelaySeconds": 120, "minSupply": 1},
			"grid":        map[string]any{"/policy": autoscalePolicies, "/pattern": autoscalePatterns},
			"repetitions": sc.campaignReps})}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames)
}

// inputs is everything one workload run sends: its documents plus, for the
// campaign, the worker fleet they go to.
type inputs struct {
	docs  []docSpec
	fleet *fleet
	dir   string
}

// setup generates the inputs of a workload: the documents, the .mcw trace
// a replay document reads (written from the synthetic workload with
// trace.WriteFile), and the campaign's two HTTP workers.
func setup(name string, seed int64, sc scale, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	docs, err := documents(name, seed, sc, dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{docs: docs, dir: dir}
	for _, d := range docs {
		if d.trace == "" {
			continue
		}
		src := docByID(docs, d.sameAs)
		w, err := src.synth()
		if err == nil {
			err = trace.WriteFile(d.trace, trace.FormatMCW, w)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("setup %s: write trace: %w", name, err)
		}
	}
	if name == "campaign" {
		if in.fleet, err = startFleet(2); err != nil {
			in.close()
			return nil, fmt.Errorf("setup %s: %w", name, err)
		}
	}
	return in, nil
}

func docByID(docs []docSpec, id string) docSpec {
	for _, d := range docs {
		if d.id == id {
			return d
		}
	}
	panic("no document " + id) // documents() names only its own ids
}

// close stops the fleet and removes the files set-up wrote.
func (in *inputs) close() {
	if in.fleet != nil {
		in.fleet.close()
	}
	os.RemoveAll(in.dir)
}

// fleet is the campaign's worker fleet: dist.NewServer daemons on loopback
// listeners inside this process, reached over HTTP like remote ones.
type fleet struct {
	urls    []string
	servers []*http.Server
	client  *http.Client
	wg      sync.WaitGroup
}

func startFleet(n int) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := &http.Server{Handler: dist.NewServer().Handler()}
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	return f, nil
}

// workers returns one coordinator-side HTTP worker per daemon. HTTP workers
// hold no state, so every campaign pass gets fresh ones.
func (f *fleet) workers() []dist.Worker {
	ws := make([]dist.Worker, len(f.urls))
	for i, u := range f.urls {
		ws[i] = &dist.HTTP{Base: u, Client: f.client}
	}
	return ws
}

// close stops every daemon and waits for its serve loop to return.
func (f *fleet) close() {
	f.client.CloseIdleConnections()
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
}
