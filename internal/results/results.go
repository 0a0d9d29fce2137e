// Package results persists experiment outputs as JSON and diffs two
// result files within a numeric tolerance — the regression-tracking
// infrastructure for the reproduction: run an experiment, save its
// record, and later verify that a refactor reproduces the same numbers.
package results

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Record is one saved experiment result: an identifier, the parameters
// that produced it, and arbitrary JSON-serializable payload.
type Record struct {
	// Experiment names the producer (e.g. "fig4b").
	Experiment string `json:"experiment"`
	// Params captures the inputs (seed, trials, sizes...).
	Params map[string]float64 `json:"params,omitempty"`
	// Data is the result payload.
	Data interface{} `json:"data"`
}

// Save writes the record as indented JSON.
func Save(path string, rec Record) error {
	if rec.Experiment == "" {
		return fmt.Errorf("results: record needs an experiment name")
	}
	return SaveJSON(path, rec)
}

// Load reads a record. The payload comes back as generic JSON values
// (map[string]interface{}, []interface{}, float64, ...).
func Load(path string) (Record, error) {
	return LoadJSON[Record](path)
}

// Diff is one discrepancy between two records.
type Diff struct {
	// Path locates the value ("data.points[3].HetMean").
	Path string
	// A, B render the two values.
	A, B string
}

// String formats the diff.
func (d Diff) String() string { return fmt.Sprintf("%s: %s != %s", d.Path, d.A, d.B) }

// Compare walks two records and returns every leaf whose values differ —
// numerics by relative tolerance tol, everything else by equality. A nil
// result means the records agree.
func Compare(a, b Record, tol float64) []Diff {
	var diffs []Diff
	if a.Experiment != b.Experiment {
		diffs = append(diffs, Diff{Path: "experiment", A: a.Experiment, B: b.Experiment})
	}
	diffs = append(diffs, compareValues("params", normalize(a.Params), normalize(b.Params), tol)...)
	diffs = append(diffs, compareValues("data", normalize(a.Data), normalize(b.Data), tol)...)
	return diffs
}

// normalize round-trips a value through JSON so that structs and generic
// maps compare uniformly.
func normalize(v interface{}) interface{} {
	if v == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("!marshal-error: %v", err)
	}
	var out interface{}
	if err := json.Unmarshal(b, &out); err != nil {
		return fmt.Sprintf("!unmarshal-error: %v", err)
	}
	return out
}

func compareValues(path string, a, b interface{}, tol float64) []Diff {
	switch av := a.(type) {
	case map[string]interface{}:
		bv, ok := b.(map[string]interface{})
		if !ok {
			return []Diff{{Path: path, A: describe(a), B: describe(b)}}
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		var diffs []Diff
		for _, k := range sorted {
			x, okA := av[k]
			y, okB := bv[k]
			sub := path + "." + k
			switch {
			case !okA:
				diffs = append(diffs, Diff{Path: sub, A: "<missing>", B: describe(y)})
			case !okB:
				diffs = append(diffs, Diff{Path: sub, A: describe(x), B: "<missing>"})
			default:
				diffs = append(diffs, compareValues(sub, x, y, tol)...)
			}
		}
		return diffs
	case []interface{}:
		bv, ok := b.([]interface{})
		if !ok {
			return []Diff{{Path: path, A: describe(a), B: describe(b)}}
		}
		if len(av) != len(bv) {
			return []Diff{{Path: path, A: fmt.Sprintf("len %d", len(av)), B: fmt.Sprintf("len %d", len(bv))}}
		}
		var diffs []Diff
		for i := range av {
			diffs = append(diffs, compareValues(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], tol)...)
		}
		return diffs
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return []Diff{{Path: path, A: describe(a), B: describe(b)}}
		}
		if !floatsClose(av, bv, tol) {
			return []Diff{{Path: path, A: fmt.Sprintf("%g", av), B: fmt.Sprintf("%g", bv)}}
		}
		return nil
	default:
		if describe(a) != describe(b) {
			return []Diff{{Path: path, A: describe(a), B: describe(b)}}
		}
		return nil
	}
}

func floatsClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-12)
}

func describe(v interface{}) string {
	if v == nil {
		return "<nil>"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	s := string(b)
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
