package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: microtools
cpu: Test CPU @ 2.00GHz
BenchmarkRunOne-8        	   27570	     43557 ns/op	       366.9 insts/s	    3272 B/op	      18 allocs/op
BenchmarkLauncherProtocol-8	   23178	     51843 ns/op	   58883 B/op	     290 allocs/op
PASS
`

func TestParse(t *testing.T) {
	got, host, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Host{CPU: "Test CPU @ 2.00GHz", GOOS: "linux", GOARCH: "amd64"}); host != want {
		t.Errorf("host = %+v, want %+v", host, want)
	}
	b, ok := got["BenchmarkRunOne"]
	if !ok {
		t.Fatalf("BenchmarkRunOne missing (got %v)", got)
	}
	if b.Iterations != 27570 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 43557, "insts/s": 366.9, "B/op": 3272, "allocs/op": 18,
	} {
		if b.Metrics[unit] != want {
			t.Errorf("%s = %v, want %v", unit, b.Metrics[unit], want)
		}
	}
	if _, ok := got["BenchmarkLauncherProtocol"]; !ok {
		t.Error("BenchmarkLauncherProtocol missing")
	}
}

func TestRunMergesByLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run("pre", "abc1234", path, strings.NewReader(sample)); err != nil {
		t.Fatal(err)
	}
	if err := run("post", "def5678", path, strings.NewReader(sample)); err != nil {
		t.Fatal(err)
	}
	// Re-running a label replaces the entry rather than duplicating it.
	if err := run("post", "def5678", path, strings.NewReader(sample)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Errorf("schema = %q", f.Schema)
	}
	if len(f.Entries) != 2 || f.Entries[0].Label != "pre" || f.Entries[1].Label != "post" {
		t.Fatalf("entries = %+v", f.Entries)
	}
	if h := f.Entries[1].Host; h == nil || h.Commit != "def5678" || h.GoVersion == "" || h.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("host = %+v", h)
	}
}

// TestParseRepeatedRunsKeepsSamplesAndMedians: -count=N output records
// every run under samples and the per-unit medians as the metrics.
func TestParseRepeatedRunsKeepsSamplesAndMedians(t *testing.T) {
	in := `BenchmarkLaunch-2   100   300 ns/op   10 B/op   1 allocs/op
BenchmarkLaunch-2   120   100 ns/op   10 B/op   1 allocs/op
BenchmarkLaunch-2   110   200 ns/op   12 B/op   1 allocs/op
BenchmarkLaunch-2   130   500 ns/op   10 B/op   1 allocs/op
`
	got, _, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b := got["BenchmarkLaunch"]
	if len(b.Samples) != 4 {
		t.Fatalf("samples = %+v", b.Samples)
	}
	if b.Iterations != 115 || b.Metrics["ns/op"] != 250 || b.Metrics["B/op"] != 10 || b.Metrics["allocs/op"] != 1 {
		t.Errorf("medians = %d iterations, %v", b.Iterations, b.Metrics)
	}
	if b.Samples[0].Metrics["ns/op"] != 300 || b.Samples[3].Iterations != 130 {
		t.Errorf("samples out of order: %+v", b.Samples)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run("pre", "abc1234", path, strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input accepted")
	}
	if err := run("", "", path, strings.NewReader(sample)); err == nil {
		t.Error("missing label accepted")
	}
}

// TestGitCommitMarksDirtyTrees: the recorded commit says when the numbers
// come from uncommitted changes.
func TestGitCommitMarksDirtyTrees(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	if got := gitCommit(); got != "" {
		t.Errorf("outside a checkout: commit = %q, want empty", got)
	}
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f")
	git("commit", "-q", "-m", "init")
	clean := gitCommit()
	if clean == "" || strings.HasSuffix(clean, "-dirty") {
		t.Fatalf("clean tree: commit = %q", clean)
	}
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := gitCommit(); got != clean+"-dirty" {
		t.Errorf("dirty tree: commit = %q, want %q", got, clean+"-dirty")
	}
}
