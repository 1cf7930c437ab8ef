package clsacim

import "testing"

// mobilenet_facade_test.go covers the depthwise-separable extension
// through the public API.

func TestMobileNetV1EndToEnd(t *testing.T) {
	m := load(t, "mobilenetv1")
	ev, err := Evaluate(m, Config{ExtraPEs: 32, WeightDuplication: true, TargetSets: 26}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result.PEmin != 238 {
		t.Errorf("MobileNetV1 PEmin = %d, want 238 (packed depthwise mapping)", ev.Result.PEmin)
	}
	if ev.Speedup <= 1 {
		t.Errorf("speedup %.2f <= 1", ev.Speedup)
	}
	rel := (ev.Speedup - ev.Eq3Speedup) / ev.Speedup
	if rel < -0.01 || rel > 0.01 {
		t.Errorf("Eq3 %.3f vs measured %.3f", ev.Eq3Speedup, ev.Speedup)
	}
}

func TestVerifyFunctionalDepthwise(t *testing.T) {
	m, err := LoadModel("tinydwnet", ModelOptions{WithWeights: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyFunctional(m, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxErrCanonicalization > 1e-5 {
		t.Errorf("canonicalization error %v", rep.MaxErrCanonicalization)
	}
	if rep.MaxErrDuplication != 0 {
		t.Errorf("duplication rewrite error %v", rep.MaxErrDuplication)
	}
	if rep.MaxErrCrossbar > 0.15*rep.OutputScale+0.05 {
		t.Errorf("crossbar error %v vs scale %v", rep.MaxErrCrossbar, rep.OutputScale)
	}
}

func TestMobileNetListedInZoo(t *testing.T) {
	found := false
	for _, name := range AllModels() {
		if name == "mobilenetv1" {
			found = true
		}
	}
	if !found {
		t.Error("mobilenetv1 missing from AllModels")
	}
}
