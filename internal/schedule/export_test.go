package schedule

import (
	"bytes"
	"encoding/json"
	"testing"

	"clsacim/internal/models"
)

func TestExportJSONRoundTrip(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 16, 26)
	s, err := Schedule(dg, CrossLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf, dg); err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if back.Mode != "xinf" || back.Makespan != s.Makespan {
		t.Errorf("header = %s/%d", back.Mode, back.Makespan)
	}
	if len(back.Layers) != len(dg.Plan.Layers) {
		t.Fatalf("layers = %d, want %d", len(back.Layers), len(dg.Plan.Layers))
	}
	for li, el := range back.Layers {
		ls := dg.Plan.Layers[li]
		if el.Name != ls.Group.Node.Name || el.Replicas != ls.Group.Dup {
			t.Errorf("layer %d header mismatch: %+v", li, el)
		}
		if len(el.Items) != ls.NumSets() {
			t.Fatalf("layer %d items = %d, want %d", li, len(el.Items), ls.NumSets())
		}
		for si, it := range el.Items {
			want := *s.At(li, si)
			if it.Start != want.Start || it.End != want.End || it.Replica != want.Replica {
				t.Fatalf("layer %d set %d timing mismatch", li, si)
			}
			box := ls.Box(si)
			if it.H0 != box.H0 || it.H1 != box.H1 || it.W0 != box.W0 || it.W1 != box.W1 {
				t.Fatalf("layer %d set %d box mismatch", li, si)
			}
		}
	}
}

func TestLayerByLayerVirtualSchedule(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyConvNet, 32, 0, 4)
	reload := make([]int64, len(dg.Plan.Layers))
	reload[1] = 100
	reload[2] = 50
	s, err := LayerByLayerVirtual(dg, reload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(dg, Options{}); err != nil {
		t.Fatal(err)
	}
	plain, err := Schedule(dg, LayerByLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != plain.Makespan+150 {
		t.Errorf("virtual makespan %d != plain %d + 150", s.Makespan, plain.Makespan)
	}
	// The gap sits exactly before layer 1.
	if s.StartOf(1) != plain.StartOf(1)+100 {
		t.Errorf("layer 1 starts at %d, want %d", s.StartOf(1), plain.StartOf(1)+100)
	}
	if _, err := LayerByLayerVirtual(dg, []int64{1}); err == nil {
		t.Error("short reload vector accepted")
	}
}
