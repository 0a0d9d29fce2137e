package results

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Nested struct {
		X float64 `json:"x"`
	} `json:"nested"`
}

func samplePayload() payload {
	p := payload{Name: "demo", Values: []float64{1, 2, 3}}
	p.Nested.X = 0.5
	return p
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	rec := Record{
		Experiment: "fig4b",
		Params:     map[string]float64{"seed": 42, "trials": 100},
		Data:       samplePayload(),
	}
	if err := Save(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig4b" || got.Params["seed"] != 42 {
		t.Errorf("loaded %+v", got)
	}
	if diffs := Compare(rec, got, 1e-12); len(diffs) != 0 {
		t.Errorf("round trip not identical: %v", diffs)
	}
}

func TestSaveValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := Save(path, Record{}); err == nil {
		t.Error("unnamed record should fail")
	}
	if err := Save(filepath.Join(t.TempDir(), "missing", "x.json"),
		Record{Experiment: "x"}); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("corrupt file should fail")
	}
}

// TestLoadJSONIgnoresDroppedFields pins the non-strict decoding: a
// kernels file written before "tile" left the schema still loads.
func TestLoadJSONIgnoresDroppedFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	old := `{"schema": "nlfl/bench-kernels/v1", "entries": [{"kernel": "tiled", "n": 64, "tile": 64, "gflops": 2}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := LoadJSON[KernelBenchFile](path)
	if err != nil {
		t.Fatalf("older file with a dropped field rejected: %v", err)
	}
	if len(f.Entries) != 1 || f.Entries[0].Kernel != "tiled" || f.Entries[0].GFLOPS != 2 {
		t.Errorf("decoded %+v", f)
	}
	if _, err := LoadJSON[KernelBenchFile](filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCompareTolerance(t *testing.T) {
	a := Record{Experiment: "e", Data: map[string]float64{"v": 100}}
	b := Record{Experiment: "e", Data: map[string]float64{"v": 100.4}}
	if diffs := Compare(a, b, 0.01); len(diffs) != 0 {
		t.Errorf("0.4%% difference within 1%% tolerance flagged: %v", diffs)
	}
	if diffs := Compare(a, b, 0.001); len(diffs) != 1 {
		t.Errorf("0.4%% difference above 0.1%% tolerance not flagged: %v", diffs)
	}
}

func TestCompareStructural(t *testing.T) {
	a := Record{Experiment: "e", Data: map[string]interface{}{
		"rows": []interface{}{1.0, 2.0}, "label": "x", "only-a": true,
	}}
	b := Record{Experiment: "f", Data: map[string]interface{}{
		"rows": []interface{}{1.0, 2.0, 3.0}, "label": "y",
	}}
	diffs := Compare(a, b, 0)
	joined := ""
	for _, d := range diffs {
		joined += d.String() + "\n"
	}
	for _, want := range []string{"experiment", "data.rows", "data.label", "data.only-a"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing diff for %s in:\n%s", want, joined)
		}
	}
}

func TestCompareNaNEqual(t *testing.T) {
	if !floatsClose(math.NaN(), math.NaN(), 0) {
		t.Error("NaN should compare equal to NaN in regression diffs")
	}
	if floatsClose(1, math.NaN(), 1) {
		t.Error("NaN vs number must differ")
	}
}

func TestCompareTypeMismatch(t *testing.T) {
	a := Record{Experiment: "e", Data: map[string]interface{}{"v": 1.0}}
	b := Record{Experiment: "e", Data: map[string]interface{}{"v": "one"}}
	if diffs := Compare(a, b, 0); len(diffs) != 1 {
		t.Errorf("type mismatch not flagged: %v", diffs)
	}
	c := Record{Experiment: "e", Data: []interface{}{1.0}}
	if diffs := Compare(a, c, 0); len(diffs) == 0 {
		t.Error("map vs slice not flagged")
	}
}

func TestDiffRendering(t *testing.T) {
	d := Diff{Path: "data.x", A: "1", B: "2"}
	if d.String() != "data.x: 1 != 2" {
		t.Errorf("diff rendering: %s", d)
	}
}
