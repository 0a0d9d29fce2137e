package nlfl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps CI's `go test -run` filters honest: a
// pattern that names no test passes vacuously (the capacity-smoke step
// once gated nothing through a test that did not exist). Every Test… name
// in the workflow must be the prefix of some test function in the module.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`\bTest[A-Z]\w*`).FindAllString(string(ci), -1)
	if len(names) == 0 {
		t.Fatal("no test names found in ci.yml")
	}
	for _, name := range names {
		found := false
		for _, f := range funcs {
			if strings.HasPrefix(f, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ci.yml runs %s, but no test function starts with it", name)
		}
	}
}
