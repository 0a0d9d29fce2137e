package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// referenceSeed is the seed the committed results/*.json were made with.
const referenceSeed = 42

// paperInstance drives `nlfl all` on the pre-built binary, one process
// per op, each writing into its own directory under the scratch root.
type paperInstance struct {
	bin     string
	scratch string
	seed    int64
	// reference is what every op's output must equal byte for byte: the
	// committed results/ at the reference seed (those files that are
	// committed), and always the previous op's files.
	reference map[string][]byte
	previous  map[string][]byte
	ops       int
	// cpuSeconds sums utime+stime of the `nlfl all` processes so far and
	// peakRSSKB is the largest resident set one of them reached, both from
	// each process's own rusage: no other child of the harness counts.
	cpuSeconds float64
	peakRSSKB  int64
}

func setupPaper(rc *runConfig) (instance, error) {
	scratch, err := os.MkdirTemp(outDir, "paper-")
	if err != nil {
		return nil, err
	}
	pi := &paperInstance{bin: rc.nlflBin, scratch: scratch, seed: rc.seed}
	if rc.seed == referenceSeed {
		if pi.reference, err = readDir(rc.resultsDir); err != nil {
			return nil, fmt.Errorf("reference results: %w", err)
		}
		if len(pi.reference) == 0 {
			return nil, fmt.Errorf("reference results: %s holds no file", rc.resultsDir)
		}
	}
	// One op warms the page cache with the binary and gives the second op
	// something to be compared with.
	if err := pi.op(&opCtx{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return pi, nil
}

func readDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = b
	}
	return files, nil
}

// op runs the paper's evaluation once and byte-compares what it wrote.
func (pi *paperInstance) op(c *opCtx) error {
	dir := filepath.Join(pi.scratch, strconv.Itoa(pi.ops))
	pi.ops++
	defer os.RemoveAll(dir)

	sp := c.tr.start("exec nlfl all", "cmd-nlfl", rootSpan)
	cmd := exec.Command(pi.bin, "all", "-outdir", dir, "-seed", strconv.FormatInt(pi.seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	c.tr.end(sp)
	if ps := cmd.ProcessState; ps != nil {
		pi.cpuSeconds += (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			pi.peakRSSKB = max(pi.peakRSSKB, ru.Maxrss)
		}
	}
	if err != nil {
		return fmt.Errorf("nlfl all: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}

	sc := c.tr.start("byte-compare", "benchmark", rootSpan)
	defer c.tr.end(sc)
	got, err := readDir(dir)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("nlfl all wrote no file")
	}
	for name, want := range pi.reference {
		if !bytes.Equal(got[name], want) {
			return fmt.Errorf("%s differs from the committed results/%s", name, name)
		}
	}
	if pi.previous != nil {
		if err := sameFiles(got, pi.previous); err != nil {
			return fmt.Errorf("two consecutive ops disagree: %w", err)
		}
	}
	pi.previous = got
	return nil
}

func sameFiles(a, b map[string][]byte) error {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		return fmt.Errorf("%d files against %d", len(a), len(b))
	}
	for _, name := range names {
		if !bytes.Equal(a[name], b[name]) {
			return fmt.Errorf("%s differs", name)
		}
	}
	return nil
}

func (pi *paperInstance) measure(d time.Duration, seed int64, rec *recorder) (*measurement, error) {
	m := closedLoop(d, 1, seed, rec, func() float64 { return pi.cpuSeconds }, pi.op)
	m.peakRSSMB = float64(pi.peakRSSKB) / 1024
	return m, nil
}

func (pi *paperInstance) probes(m *measurement) error { return paperProbes(m, pi.seed) }

func (pi *paperInstance) close() error { return os.RemoveAll(pi.scratch) }
