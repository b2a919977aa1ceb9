package dcmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMachineClassValidate(t *testing.T) {
	good := []MachineClass{ClassCommodity, ClassBig, ClassSlow, ClassGPU}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	bad := []MachineClass{
		{Name: "nocores", Cores: 0, MemoryMB: 1, Speed: 1, MaxWatts: 1},
		{Name: "nomem", Cores: 1, MemoryMB: 0, Speed: 1, MaxWatts: 1},
		{Name: "nospeed", Cores: 1, MemoryMB: 1, Speed: 0, MaxWatts: 1},
		{Name: "badpower", Cores: 1, MemoryMB: 1, Speed: 1, IdleWatts: 10, MaxWatts: 5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid class accepted", c.Name)
		}
	}
}

func TestPowerModel(t *testing.T) {
	c := MachineClass{Name: "p", Cores: 4, MemoryMB: 4, Speed: 1, IdleWatts: 100, MaxWatts: 300}
	if got := c.Power(0); got != 100 {
		t.Errorf("idle power=%v", got)
	}
	if got := c.Power(1); got != 300 {
		t.Errorf("max power=%v", got)
	}
	if got := c.Power(0.5); got != 200 {
		t.Errorf("half power=%v", got)
	}
	if got := c.Power(-1); got != 100 {
		t.Errorf("clamped low power=%v", got)
	}
	if got := c.Power(2); got != 300 {
		t.Errorf("clamped high power=%v", got)
	}
}

func TestMachineAllocateReleaseInvariant(t *testing.T) {
	m := &Machine{ID: 1, Class: ClassCommodity}
	if !m.Allocate(8, 1024) {
		t.Fatal("allocation failed")
	}
	if m.FreeCores() != 8 {
		t.Errorf("free cores=%d", m.FreeCores())
	}
	if m.Allocate(9, 1) {
		t.Fatal("over-allocation of cores accepted")
	}
	if m.Allocate(1, m.Class.MemoryMB) {
		t.Fatal("over-allocation of memory accepted")
	}
	m.Release(8, 1024)
	if m.UsedCores() != 0 || m.FreeMemoryMB() != m.Class.MemoryMB {
		t.Error("release did not restore state")
	}
	// Double release must not go negative.
	m.Release(8, 1024)
	if m.UsedCores() != 0 {
		t.Error("negative allocation after double release")
	}
}

// Property: any sequence of allocate/release/fail keeps 0 ≤ used ≤ capacity.
func TestMachineCapacityProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Cores uint8
		Mem   uint16
	}
	prop := func(ops []op) bool {
		m := &Machine{ID: 1, Class: ClassCommodity}
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				m.Allocate(int(o.Cores), int(o.Mem))
			case 1:
				m.Release(int(o.Cores), int(o.Mem))
			case 2:
				m.SetDown(true)
			case 3:
				m.SetDown(false)
			}
			if m.UsedCores() < 0 || m.UsedCores() > m.Class.Cores {
				return false
			}
			if u := m.Utilization(); u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestFailureClearsAllocations(t *testing.T) {
	m := &Machine{ID: 1, Class: ClassCommodity}
	m.Allocate(4, 100)
	m.SetDown(true)
	if m.FreeCores() != 0 || m.Fits(1, 1) {
		t.Error("down machine must offer no capacity")
	}
	m.SetDown(false)
	if m.UsedCores() != 0 {
		t.Error("repair must restore a clean machine")
	}
	if m.FreeCores() != m.Class.Cores {
		t.Error("repaired machine must be fully free")
	}
}

func TestNewHomogeneous(t *testing.T) {
	c := NewHomogeneous("dc", 70, ClassCommodity, 32)
	if len(c.Machines) != 70 {
		t.Fatalf("machines=%d", len(c.Machines))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalCores() != 70*16 {
		t.Errorf("total cores=%d", c.TotalCores())
	}
	racks := make(map[string]int)
	for _, m := range c.Machines {
		racks[m.Rack]++
	}
	if len(racks) != 3 {
		t.Errorf("racks=%d, want 3 (32+32+6)", len(racks))
	}
}

func TestNewHeterogeneous(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := NewHeterogeneous("het", []Mix{
		{Class: ClassCommodity, Count: 10},
		{Class: ClassBig, Count: 5},
		{Class: ClassGPU, Count: 2},
	}, 8, r)
	if len(c.Machines) != 17 {
		t.Fatalf("machines=%d", len(c.Machines))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	gpus := 0
	for _, m := range c.Machines {
		if m.Class.Accelerator == "gpu" {
			gpus++
		}
	}
	if gpus != 2 {
		t.Errorf("gpus=%d", gpus)
	}
}

func TestClusterAggregates(t *testing.T) {
	c := NewHomogeneous("dc", 4, ClassCommodity, 2)
	c.Machines[0].Allocate(16, 1024) // fully busy
	c.Machines[1].SetDown(true)
	if got := c.UpMachines(); got != 3 {
		t.Errorf("up=%d", got)
	}
	if got := c.AvailableCores(); got != 32 {
		t.Errorf("available=%d", got)
	}
	// Utilization over up machines: 16 used of 48.
	if got := c.Utilization(); got < 0.33 || got > 0.34 {
		t.Errorf("utilization=%v", got)
	}
	// Power: machine0 at max, machines 2,3 idle, machine1 down.
	want := ClassCommodity.MaxWatts + 2*ClassCommodity.IdleWatts
	if got := c.PowerWatts(); got != want {
		t.Errorf("power=%v, want %v", got, want)
	}
	c.Reset()
	if c.UpMachines() != 4 || c.Utilization() != 0 {
		t.Error("reset incomplete")
	}
}

func TestClusterValidateDuplicateIDs(t *testing.T) {
	c := &Cluster{Machines: []*Machine{
		{ID: 1, Class: ClassCommodity},
		{ID: 1, Class: ClassCommodity},
	}}
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate machine IDs accepted")
	}
}

func TestDatacenterTotalCores(t *testing.T) {
	d := Datacenter{Name: "eu", Clusters: []*Cluster{
		NewHomogeneous("a", 2, ClassCommodity, 8),
		NewHomogeneous("b", 3, ClassSlow, 8),
	}}
	if got := d.TotalCores(); got != 2*16+3*8 {
		t.Errorf("total=%d", got)
	}
}

// scanUtilization and scanPowerWatts are the uncached cluster scans, kept as
// the reference the cache must reproduce bit for bit.
func scanUtilization(c *Cluster) float64 {
	var used, cap int
	for _, m := range c.Machines {
		if m.Down() || m.Asleep() {
			continue
		}
		used += m.UsedCores()
		cap += m.Class.Cores
	}
	if cap == 0 {
		return 0
	}
	return float64(used) / float64(cap)
}

func scanPowerWatts(c *Cluster) float64 {
	total := 0.0
	for _, m := range c.Machines {
		if m.Down() {
			continue
		}
		if m.Asleep() {
			total += SleepWatts
			continue
		}
		total += m.Class.Power(m.Utilization())
	}
	return total
}

// TestClusterCacheMatchesScan drives random mutator sequences, refused and
// no-op calls included, and checks after every step that the cached power
// and utilization carry the same bits as a fresh scan.
func TestClusterCacheMatchesScan(t *testing.T) {
	clusters := map[string]func() *Cluster{
		"homogeneous": func() *Cluster { return NewHomogeneous("h", 12, ClassCommodity, 4) },
		"heterogeneous": func() *Cluster {
			return NewHeterogeneous("x", []Mix{
				{Class: ClassCommodity, Count: 4},
				{Class: ClassBig, Count: 3},
				{Class: ClassSlow, Count: 3},
				{Class: ClassGPU, Count: 3},
			}, 4, rand.New(rand.NewSource(1)))
		},
		"struct literal": func() *Cluster {
			return &Cluster{Machines: []*Machine{
				{ID: 0, Class: ClassGPU}, {ID: 1, Class: ClassSlow}, {ID: 2, Class: ClassBig},
			}}
		},
	}
	for name, mk := range clusters {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			c := mk()
			for step := 0; step < 20000; step++ {
				m := c.Machines[r.Intn(len(c.Machines))]
				var op string
				switch k := r.Intn(100); {
				case k < 40:
					op = "Allocate"
					m.Allocate(r.Intn(m.Class.Cores+4), r.Intn(m.Class.MemoryMB/4+1))
				case k < 75:
					op = "Release"
					m.Release(r.Intn(m.Class.Cores/2+2), r.Intn(m.Class.MemoryMB/8+1))
				case k < 85:
					op = "SetDown"
					m.SetDown(r.Intn(2) == 0)
				case k < 99:
					op = "SetAsleep"
					m.SetAsleep(r.Intn(2) == 0)
				default:
					op = "Reset"
					c.Reset()
				}
				// Skip some reads so mutations also land on a cache that
				// was not refreshed since the previous one.
				if r.Intn(4) == 0 {
					continue
				}
				if got, want := math.Float64bits(c.PowerWatts()), math.Float64bits(scanPowerWatts(c)); got != want {
					t.Fatalf("step %d after %s: PowerWatts bits %#x, scan %#x", step, op, got, want)
				}
				if got, want := math.Float64bits(c.Utilization()), math.Float64bits(scanUtilization(c)); got != want {
					t.Fatalf("step %d after %s: Utilization bits %#x, scan %#x", step, op, got, want)
				}
			}
		})
	}
}
