package schedule

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/sets"
)

var updateFine = flag.Bool("update", false, "rewrite testdata/fine.golden")

// nocHops is a NoC-like edge cost for the golden: two cycles per layer
// hop plus one cycle per 512 transferred elements.
func nocHops(pred deps.SetRef, toLayer int) int64 {
	return 2*int64(toLayer-pred.Layer) + int64(pred.Vol)/512
}

// timelineDigest renders a timeline as its makespan, activity rows and
// an FNV-1a hash over every item's (layer, set, replica, start, end) in
// flat CSR order.
func timelineDigest(t *Timeline) string {
	h := fnv.New64a()
	var buf [40]byte
	for li := 0; li < t.NumLayers(); li++ {
		for si := range t.ItemsOf(li) {
			it := t.At(li, si)
			binary.LittleEndian.PutUint64(buf[0:], uint64(it.Layer))
			binary.LittleEndian.PutUint64(buf[8:], uint64(it.Set))
			binary.LittleEndian.PutUint64(buf[16:], uint64(it.Replica))
			binary.LittleEndian.PutUint64(buf[24:], uint64(it.Start))
			binary.LittleEndian.PutUint64(buf[32:], uint64(it.End))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("makespan %d\nlayer_active %v\nreplica_active %v\nitems %d fnv1a %016x\n",
		t.Makespan, t.LayerActive, t.ReplicaActive, len(t.Items), h.Sum64())
}

// TestFineGranularityGolden pins fine-granularity timelines, where
// layers have several replicas, so the replica dispatch, the end times
// and the activity accounting are all covered, under lbl, x4 and xinf,
// with a NoC edge cost, and on a virtualized (F < PEmin) mapping.
//
// Regenerate after an intentional schedule change with
//
//	go test ./internal/schedule -run TestFineGranularityGolden -update
func TestFineGranularityGolden(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		id   models.ID
		size int
	}{{models.TinyYOLOv4, 416}, {models.ResNet50, 224}} {
		_, _, dg := compileDeps(t, tc.id, tc.size, 32, sets.FineGranularity)
		for _, p := range []Policy{LayerByLayer, Windowed(4), CrossLayer} {
			tl, err := Schedule(dg, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "== %s wdup+32 %s\n%s", tc.id, p.Name(), timelineDigest(tl))
		}
		if tc.id == models.TinyYOLOv4 {
			tl, err := Schedule(dg, CrossLayer, Options{EdgeCost: nocHops})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "== %s wdup+32 xinf noc\n%s", tc.id, timelineDigest(tl))
		}
	}
	dg, reload := virtualDeps(t)
	tl, err := Schedule(dg, LayerByLayer, Options{Reload: reload})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== %s virtual lbl\n%s", models.TinyYOLOv4, timelineDigest(tl))

	path := filepath.Join("testdata", "fine.golden")
	if *updateFine {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("fine-granularity timelines drifted from %s:\n%s", path, out.String())
	}
}

// virtualDeps compiles TinyYOLOv4 at fine granularity onto 20 PEs fewer
// than PEmin with weight virtualization, returning the dependency graph
// and the per-layer reload cycles.
func virtualDeps(t *testing.T) (*deps.Graph, []int64) {
	t.Helper()
	g := models.MustBuild(models.TinyYOLOv4, models.Options{InputSize: 416})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mapping.SolveVirtual(plan, plan.MinPEs-20, mapping.WriteCost{CyclesPerCrossbar: 512, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, vm.Mapping, sets.Options{TargetSets: sets.FineGranularity})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return dg, vm.ReloadCycles
}
