package mapreduce

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/matmul"
	"nlfl/internal/partition"
	"nlfl/internal/stats"
)

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"The DOG and the FOX",
	}
	out, ctr, err := WordCount(lines, 2, 3)
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
	_, c1, err := WordCount(lines, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out, c2, err := WordCount(lines, 4, 4)
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

func TestVectorOuterJob(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5}
	got, ctr, err := RunVectorOuter(a, b, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := matmul.VectorOuter(a, b)
	if !want.Equal(got, 1e-12) {
		t.Error("outer product wrong")
	}
	if ctr.OutputKeys != 3 {
		t.Errorf("output keys = %d", ctr.OutputKeys)
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

func TestSortedKeys(t *testing.T) {
	ks := SortedKeys(map[int]string{3: "c", 1: "a", 2: "b"})
	if ks[0] != 1 || ks[1] != 2 || ks[2] != 3 {
		t.Errorf("keys = %v", ks)
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

func TestSortJob(t *testing.T) {
	r := stats.NewRNG(51)
	keys := stats.SampleN(stats.Uniform{Lo: 0, Hi: 1}, r, 20000)
	splitters := []float64{0.25, 0.5, 0.75}
	got, ctr, err := SortJob(keys, splitters, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("length %d, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if ctr.ReduceTasks != 4 {
		t.Errorf("reducers = %d, want 4 buckets", ctr.ReduceTasks)
	}
	// Every key crosses the shuffle exactly once (no combiner possible).
	if ctr.ShufflePairs != len(keys) {
		t.Errorf("shuffle = %d, want %d", ctr.ShufflePairs, len(keys))
	}
	// Unsorted splitters rejected.
	if _, _, err := SortJob(keys, []float64{0.5, 0.25}, 2); err == nil {
		t.Error("unsorted splitters should fail")
	}
}

func TestSortJobEdgeCases(t *testing.T) {
	// No splitters: single bucket, still sorted.
	got, _, err := SortJob([]float64{3, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
	// Empty input.
	empty, _, err := SortJob(nil, []float64{0.5}, 2)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty sort: %v %v", empty, err)
	}
}

func TestInvertedIndex(t *testing.T) {
	docs := []string{
		"the quick fox",
		"the lazy dog",
		"fox and dog",
	}
	idx, ctr, err := InvertedIndex(docs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]int{
		"the": {0, 1}, "fox": {0, 2}, "dog": {1, 2}, "quick": {0},
	}
	for term, want := range cases {
		got := idx[term]
		if len(got) != len(want) {
			t.Fatalf("index[%q] = %v, want %v", term, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("index[%q] = %v, want %v", term, got, want)
			}
		}
	}
	if ctr.OutputKeys != 6 {
		t.Errorf("terms = %d, want 6 (the, quick, fox, lazy, dog, and)", ctr.OutputKeys)
	}
	// Duplicate words within a document emit once.
	idx2, _, err := InvertedIndex([]string{"a a a"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx2["a"]) != 1 {
		t.Errorf("duplicate suppression failed: %v", idx2["a"])
	}
}
