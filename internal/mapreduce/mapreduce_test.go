package mapreduce

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nlfl/internal/matmul"
	"nlfl/internal/partition"
)

// wordCount is the canonical linear-complexity job ("standard text
// processing operations", Section 1.1), with a combiner: the engine's
// counters and determinism are checked on it.
func wordCount(lines []string, mappers, reducers int) (map[string]int, Counters, error) {
	sum := func(_ string, vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	}
	job := &Job[string, string, int, int]{
		Name:     "wordcount",
		Mappers:  mappers,
		Reducers: reducers,
		Map: func(line string, emit Emit[string, int]) {
			for _, w := range strings.Fields(line) {
				emit(strings.ToLower(w), 1)
			}
		},
		Combine: sum,
		Reduce:  sum,
	}
	return job.Run(lines)
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"The DOG and the FOX",
	}
	out, ctr, err := wordCount(lines, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 4, "quick": 1, "brown": 1, "fox": 2, "lazy": 1, "dog": 2, "and": 1}
	if len(out) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(out), len(want), out)
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, out[k], v)
		}
	}
	if ctr.InputRecords != 3 || ctr.MapOutputPairs != 12 {
		t.Errorf("counters: %+v", ctr)
	}
	// The combiner must shrink the shuffle below the map output.
	if ctr.ShufflePairs > ctr.MapOutputPairs {
		t.Errorf("shuffle %d exceeds map output %d", ctr.ShufflePairs, ctr.MapOutputPairs)
	}
}

func TestJobValidation(t *testing.T) {
	j := &Job[int, int, int, int]{}
	if _, _, err := j.Run([]int{1}); err == nil {
		t.Error("missing Map/Reduce should fail")
	}
}

func TestJobDeterminism(t *testing.T) {
	lines := []string{"a b c a", "b c d", "d d d a"}
	_, c1, err := wordCount(lines, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out, c2, err := wordCount(lines, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatalf("counters differ across runs: %+v vs %+v", c1, c2)
		}
		if out["d"] != 4 {
			t.Fatal("wrong result")
		}
	}
}

func TestMatMulPairsCorrect(t *testing.T) {
	a := matmul.Random(7, 5, 1)
	b := matmul.Random(5, 6, 2)
	want, _ := matmul.Naive(a, b)
	for _, combine := range []bool{false, true} {
		got, ctr, err := RunMatMulPairs(a, b, 3, 4, combine)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got, 1e-9) {
			t.Errorf("combine=%v: MapReduce matmul wrong", combine)
		}
		// Input is the replicated n³-style dataset.
		if ctr.InputRecords != 7*5*6 {
			t.Errorf("input records = %d, want 210", ctr.InputRecords)
		}
		if ctr.OutputKeys != 7*6 {
			t.Errorf("output keys = %d, want 42", ctr.OutputKeys)
		}
	}
}

func TestCombinerShrinksMatMulShuffle(t *testing.T) {
	a := matmul.Random(8, 8, 3)
	b := matmul.Random(8, 8, 4)
	_, noComb, err := RunMatMulPairs(a, b, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	_, comb, err := RunMatMulPairs(a, b, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// Without combining every one of the n³ partial products crosses the
	// shuffle.
	if noComb.ShufflePairs != 8*8*8 {
		t.Errorf("uncombined shuffle = %d, want 512", noComb.ShufflePairs)
	}
	if comb.ShufflePairs >= noComb.ShufflePairs {
		t.Errorf("combiner failed to shrink shuffle: %d vs %d", comb.ShufflePairs, noComb.ShufflePairs)
	}
}

func TestDistributionVolumes(t *testing.T) {
	const n = 100
	naive := NaivePairsVolume(n)
	if naive.Volume != 2e6 {
		t.Errorf("naive = %v, want 2·100³", naive.Volume)
	}
	rc := RowColumnVolume(n, 10)
	if rc.Volume != 2*10*100*100 {
		t.Errorf("row-column = %v", rc.Volume)
	}
	if BlockVolume(n, 10).Volume != rc.Volume {
		t.Error("block and row-column volumes should match at equal g")
	}
	grid := GridVolume(n, 4, 4)
	if grid.Volume != 100*100*6 {
		t.Errorf("grid = %v", grid.Volume)
	}
	// The 2D grid must beat the 1D-style distributions for equal p.
	if grid.Volume >= RowColumnVolume(n, 16).Volume {
		t.Error("grid should communicate less than row-column at p=16")
	}
	part, err := partition.PeriSum([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	het := HeterogeneousVolume(n, part)
	// 4 equal areas tile as a 2×2 grid: Ĉ = 4, volume = n²·2 = grid(2,2).
	if math.Abs(het.Volume-GridVolume(n, 2, 2).Volume) > 1e-6 {
		t.Errorf("het = %v, want %v", het.Volume, GridVolume(n, 2, 2).Volume)
	}
	all := CompareDistributions(n, 2, 2, part)
	if len(all) != 5 {
		t.Fatalf("menu size %d", len(all))
	}
	for _, d := range all {
		if d.String() == "" || d.Volume <= 0 {
			t.Errorf("bad entry %+v", d)
		}
	}
}

// Property: MapReduce matmul equals the dense kernel for arbitrary small
// shapes and parallelism.
func TestMatMulPairsProperty(t *testing.T) {
	f := func(seed int64, dims [2]uint8, mr [2]uint8) bool {
		m := int(dims[0]%5) + 1
		n := int(dims[1]%5) + 1
		a := matmul.Random(m, n, seed)
		b := matmul.Random(n, m, seed+1)
		want, err := matmul.Naive(a, b)
		if err != nil {
			return false
		}
		got, _, err := RunMatMulPairs(a, b, int(mr[0]%6)+1, int(mr[1]%6)+1, seed%2 == 0)
		if err != nil {
			return false
		}
		return want.Equal(got, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
