package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// withProcs runs f at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestParallelReturnsLowestIndexError(t *testing.T) {
	// Step 2 fails only after step 5 has: completion order is the reverse
	// of index order, and index order must still win.
	fiveFailed := make(chan struct{})
	var err error
	withProcs(4, func() {
		err = parallel(8, func(i int) error {
			switch i {
			case 2:
				<-fiveFailed
				return errors.New("step two")
			case 5:
				defer close(fiveFailed)
				return errors.New("step five")
			}
			return nil
		})
	})
	if err == nil || err.Error() != "step two" {
		t.Errorf("parallel returned %v, want step two's error", err)
	}
}

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		hits := make([]int, 100)
		var err error
		withProcs(procs, func() {
			err = parallel(len(hits), func(i int) error { hits[i]++; return nil })
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("GOMAXPROCS=%d: step %d ran %d times", procs, i, h)
			}
		}
	}
}

// onTestGoroutine reports whether its caller runs on the goroutine of the
// named test function, i.e. was not handed to a spawned worker.
func onTestGoroutine(test string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "."+test) {
			return true
		}
		if !more {
			return false
		}
	}
}

func TestParallelSmallNDoesNotSpawn(t *testing.T) {
	withProcs(8, func() {
		if err := parallel(0, func(int) error { t.Error("step ran for n = 0"); return nil }); err != nil {
			t.Error(err)
		}
		ran := false
		err := parallel(1, func(int) error {
			ran = true
			if !onTestGoroutine("TestParallelSmallNDoesNotSpawn") {
				t.Error("n = 1 left the caller's goroutine")
			}
			return nil
		})
		if err != nil || !ran {
			t.Errorf("n = 1: ran=%v err=%v", ran, err)
		}
	})
}

func TestParallelPanicIsTheStepsError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() {
			err = parallel(4, func(i int) error {
				if i == 1 {
					panic("boom")
				}
				return nil
			})
		})
		if err == nil || !strings.Contains(err.Error(), "step 1 panicked: boom") {
			t.Errorf("GOMAXPROCS=%d: parallel returned %v, want step 1's panic", procs, err)
		}
	}
}

// TestBitIdenticalAcrossGOMAXPROCS is the determinism contract of the
// runner: RNGs drawn up front in trial order and outcomes folded in trial
// order make every float independent of how many goroutines computed them.
func TestBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	fc := DefaultFig4Config(platform.ProfileLogNormal)
	fc.Ps, fc.Trials = []int{10, 40}, 7
	for name, run := range map[string]func() (any, error){
		"Fig4":             func() (any, error) { return Fig4(fc) },
		"Fig4MatMul":       func() (any, error) { return Fig4MatMul(fc) },
		"PartitionQuality": func() (any, error) { return PartitionQuality([]int{10, 25}, 7, 42) },
		"ReturnsSweep":     func() (any, error) { return ReturnsSweep([]float64{0, 0.5, 1}, 6, 7, 42) },
		"RunSuite":         func() (any, error) { return RunSuite(SuiteConfig{Trials: 7, Seed: 42, Quick: true}) },
	} {
		var got [2]any
		var enc [2][]byte
		for k, procs := range []int{1, 8} {
			withProcs(procs, func() {
				v, err := run()
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
				}
				got[k] = v
				if enc[k], err = json.Marshal(v); err != nil {
					t.Fatal(err)
				}
			})
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 8:\n%+v\n%+v", name, got[0], got[1])
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("%s JSON differs between GOMAXPROCS 1 and 8", name)
		}
	}
}

// TestSharedPlatformIsNotMutated covers the one value two suite steps
// share: the affinity and bottleneck sweeps read the same platform side by
// side (the race detector watches the reads) and must leave it as it was.
func TestSharedPlatformIsNotMutated(t *testing.T) {
	gen := func() *platform.Platform {
		pl, err := platform.Generate(10, stats.Uniform{Lo: 1, Hi: 100}, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	pl := gen()
	var err error
	withProcs(2, func() {
		err = parallel(2, func(i int) (err error) {
			if i == 0 {
				_, err = AffinitySweep(pl, 1000, []int{10, 20})
			} else {
				_, err = Bottleneck(pl, 1000, 0.01, []float64{0.01, 1, 1000})
			}
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl, gen()) {
		t.Errorf("shared platform was mutated: %+v", pl)
	}
}
