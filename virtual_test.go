package clsacim

import (
	"strings"
	"testing"
)

// virtual_test.go covers the weight-virtualization extension (running
// below PEmin, paper §V-C future work) and the energy estimate through
// the public API.

func TestVirtualizationRequiresOptIn(t *testing.T) {
	_, err := Compile(load(t, "vgg16"), Config{TotalPEs: 150})
	if err == nil {
		t.Fatal("running below PEmin without opting in was accepted")
	}
	if !strings.Contains(err.Error(), "WeightVirtualization") {
		t.Errorf("error does not mention the opt-in: %v", err)
	}
}

func TestVirtualizedCompileAndSchedule(t *testing.T) {
	c, err := Compile(load(t, "vgg16"), Config{
		TotalPEs:             150,
		WeightVirtualization: true,
		TargetSets:           26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Virtualized() {
		t.Fatal("compilation not marked virtualized")
	}
	if c.ResidentLayers() >= c.BaseLayerCount() {
		t.Error("no layers swapped despite F < PEmin")
	}
	if c.ReloadCyclesTotal() <= 0 || c.CrossbarWritesPerInference() <= 0 {
		t.Error("no reload cost accounted")
	}
	rep, err := c.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReloadCycles != c.ReloadCyclesTotal() {
		t.Errorf("report reload %d != compiled %d", rep.ReloadCycles, c.ReloadCyclesTotal())
	}
	// The virtualized makespan must exceed the fitting architecture's
	// layer-by-layer makespan by exactly the reload time.
	full, err := Compile(load(t, "vgg16"), Config{TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := full.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanCycles != fullRep.MakespanCycles+rep.ReloadCycles {
		t.Errorf("virtual makespan %d != full %d + reload %d",
			rep.MakespanCycles, fullRep.MakespanCycles, rep.ReloadCycles)
	}
	if _, err := c.Schedule(ModeCrossLayer); err == nil {
		t.Error("cross-layer scheduling accepted below PEmin")
	}
}

// TestVirtualizedReportMetrics runs TinyYOLOv4 ten PEs below PEmin. The
// pooled PEs that swapped layers share must sum every layer's activity,
// cross-layer modes must be refused (they need every weight resident),
// and the layer-by-layer makespan must include the reload time.
func TestVirtualizedReportMetrics(t *testing.T) {
	m := load(t, "tinyyolov4")
	full, err := Compile(m, Config{TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := full.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(m, Config{TargetSets: 26, TotalPEs: fullRep.PEmin - 10, WeightVirtualization: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	act := rep.PEActive()
	if len(act) != rep.F {
		t.Fatalf("PEActive length %d, want F = %d", len(act), rep.F)
	}
	var sum, numerator int64
	for _, a := range act {
		sum += a
	}
	for li, g := range c.mapped.Groups {
		numerator += int64(g.PEsPerReplica()) * rep.sched.LayerActive[li]
	}
	if sum != numerator || sum != 217503 {
		t.Errorf("sum of PEActive = %d, Eq. 2 numerator = %d, want both 217503", sum, numerator)
	}
	for _, mode := range []ScheduleMode{ModeWindow(4), ModeCrossLayer} {
		if _, err := c.Schedule(mode); err == nil {
			t.Errorf("%v scheduling accepted below PEmin", mode)
		}
	}
	if rep.ReloadCycles <= 0 || rep.MakespanCycles != fullRep.MakespanCycles+rep.ReloadCycles {
		t.Errorf("virtual lbl makespan %d != full %d + reload %d",
			rep.MakespanCycles, fullRep.MakespanCycles, rep.ReloadCycles)
	}
	if rep.PeakLiveElems() <= 0 {
		t.Error("no buffer pressure recorded")
	}
}

func TestVirtualizationLatencyMonotoneInPEs(t *testing.T) {
	m := load(t, "vgg16")
	var prev int64 // shrinking F must never make inference faster
	for _, f := range []int{240, 186, 139, 93} {
		cfg := Config{TotalPEs: f, WeightVirtualization: f < 233, TargetSets: 26}
		c, err := Compile(m, cfg)
		if err != nil {
			t.Fatalf("F=%d: %v", f, err)
		}
		rep, err := c.Schedule(ModeLayerByLayer)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MakespanCycles < prev {
			t.Errorf("F=%d: makespan %d faster than larger architecture's %d",
				f, rep.MakespanCycles, prev)
		}
		prev = rep.MakespanCycles
	}
}

func TestVirtualizationWriteCostScales(t *testing.T) {
	m := load(t, "vgg16")
	cheap, err := Compile(m, Config{TotalPEs: 150, WeightVirtualization: true,
		WriteCyclesPerCrossbar: 64, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	expensive, err := Compile(m, Config{TotalPEs: 150, WeightVirtualization: true,
		WriteCyclesPerCrossbar: 4096, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	if expensive.ReloadCyclesTotal() <= cheap.ReloadCyclesTotal() {
		t.Errorf("reload %d (4096 cy) <= %d (64 cy)",
			expensive.ReloadCyclesTotal(), cheap.ReloadCyclesTotal())
	}
}

func TestEnergyReporting(t *testing.T) {
	m := load(t, "tinyyolov4")
	off, err := Evaluate(m, Config{TargetSets: 26}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if off.Result.EnergyMicroJoule != 0 {
		t.Error("energy reported without being enabled")
	}
	on, err := Evaluate(m, Config{TargetSets: 26, EnergyPerMVMNanoJ: 0.1}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if on.Result.EnergyMicroJoule <= 0 {
		t.Error("energy not reported")
	}
	// Dynamic energy is work-proportional: both schedules execute the
	// same MVMs, so lbl and xinf energy must be equal without
	// duplication overheads.
	lbl, err := Evaluate(m, Config{TargetSets: 26, EnergyPerMVMNanoJ: 0.1}, ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if diff := on.Result.EnergyMicroJoule - lbl.Result.EnergyMicroJoule; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("xinf energy %v != lbl energy %v (same work)",
			on.Result.EnergyMicroJoule, lbl.Result.EnergyMicroJoule)
	}
}

func TestVirtualEnergyIncludesWrites(t *testing.T) {
	m := load(t, "vgg16")
	c, err := Compile(m, Config{TotalPEs: 150, WeightVirtualization: true,
		TargetSets: 26, EnergyPerMVMNanoJ: 0.1, EnergyPerWriteNanoJ: 1000})
	if err != nil {
		t.Fatal(err)
	}
	withWrites, err := c.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(m, Config{TotalPEs: 150, WeightVirtualization: true,
		TargetSets: 26, EnergyPerMVMNanoJ: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	withoutWrites, err := c2.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if withWrites.EnergyMicroJoule <= withoutWrites.EnergyMicroJoule {
		t.Errorf("write energy not included: %v vs %v",
			withWrites.EnergyMicroJoule, withoutWrites.EnergyMicroJoule)
	}
}
