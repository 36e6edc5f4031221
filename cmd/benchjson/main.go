// Command benchjson converts `go test -bench` text output (read on stdin)
// into the repository's benchmark trajectory file (BENCH_sim.json, written
// by make bench-json). Each invocation parses one benchmark run and merges
// it into the output file under a label, so the file accumulates a
// before/after history across PRs:
//
//	go test -bench 'RunOne' -benchmem -count=5 . | go run ./cmd/benchjson -label pre -o BENCH_sim.json
//
// The file schema is:
//
//	{
//	  "schema": "microtools-bench/v1",
//	  "entries": [
//	    {
//	      "label": "pre-PR5",
//	      "host": {"cpu": "...", "goos": "linux", "goarch": "amd64",
//	               "go_version": "go1.24.0", "commit": "abc1234"},
//	      "benchmarks": {
//	        "BenchmarkRunOne": {
//	          "iterations": 27570,
//	          "metrics": {"ns/op": 43557, "B/op": 3272, "allocs/op": 18},
//	          "samples": [{"iterations": 27570, "metrics": {...}}, ...]
//	        }
//	      }
//	    }
//	  ]
//	}
//
// Benchmark names are stored without the -GOMAXPROCS suffix; custom
// testing.B metrics (insts/s, ...) appear alongside the standard ones.
// When a benchmark ran more than once (-count), iterations and every metric
// are the median over its runs and the runs themselves are kept under
// samples. The host block records the cpu/goos/goarch header lines of the
// run, the Go version benchjson was built with (make bench-json builds it
// with the same toolchain that ran the benchmarks) and the commit of the
// working tree it runs in, from `git describe --always --dirty`, so numbers
// measured on uncommitted changes are marked "-dirty". Entries recorded
// before the host block existed have none. Re-running with an
// existing label replaces that entry in place.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

const schema = "microtools-bench/v1"

// Bench is one benchmark's result: a single result line, or the medians
// over several with the lines kept as Samples.
type Bench struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    []Bench            `json:"samples,omitempty"`
}

// Host identifies where and from what a run was measured.
type Host struct {
	CPU       string `json:"cpu,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Commit    string `json:"commit,omitempty"`
}

// Entry is one labeled benchmark run.
type Entry struct {
	Label      string           `json:"label"`
	Host       *Host            `json:"host,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// File is the trajectory file as a whole.
type File struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// parse extracts benchmark result lines, and the cpu/goos/goarch header
// lines, from `go test -bench` output. A result line looks like:
//
//	BenchmarkRunOne-8   27570   43557 ns/op   366.9 insts/s   3272 B/op   18 allocs/op
func parse(r io.Reader) (map[string]Bench, Host, error) {
	runs := map[string][]Bench{}
	var host Host
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "cpu":
				host.CPU = strings.TrimSpace(v)
			case "goos":
				host.GOOS = strings.TrimSpace(v)
			case "goarch":
				host.GOARCH = strings.TrimSpace(v)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." line that is not a result row
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		b := Bench{Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates value / unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, Host{}, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			b.Metrics[fields[i+1]] = v
		}
		runs[name] = append(runs[name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, Host{}, err
	}
	out := make(map[string]Bench, len(runs))
	for name, rs := range runs {
		out[name] = summarize(rs)
	}
	return out, host, nil
}

// summarize folds repeated runs of one benchmark into their medians; a
// single run is returned as is.
func summarize(rs []Bench) Bench {
	if len(rs) == 1 {
		return rs[0]
	}
	iters := make([]float64, len(rs))
	for i, r := range rs {
		iters[i] = float64(r.Iterations)
	}
	out := Bench{Iterations: int64(median(iters)), Metrics: map[string]float64{}, Samples: rs}
	for unit := range rs[0].Metrics {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[unit]; ok {
				vs = append(vs, v)
			}
		}
		out.Metrics[unit] = median(vs)
	}
	return out
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// merge replaces or appends the labeled entry.
func merge(f *File, e Entry) {
	for i := range f.Entries {
		if f.Entries[i].Label == e.Label {
			f.Entries[i] = e
			return
		}
	}
	f.Entries = append(f.Entries, e)
}

func run(label, commit, path string, in io.Reader) error {
	if label == "" {
		return fmt.Errorf("benchjson: -label is required")
	}
	benches, host, err := parse(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines on stdin")
	}
	f := &File{Schema: schema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, f); err != nil {
			return fmt.Errorf("benchjson: %s: %w", path, err)
		}
		if f.Schema != schema {
			return fmt.Errorf("benchjson: %s has schema %q, want %q", path, f.Schema, schema)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	host.GoVersion = runtime.Version()
	host.Commit = commit
	merge(f, Entry{Label: label, Host: &host, Benchmarks: benches})
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit names the commit of the working tree benchjson runs in, with a
// "-dirty" suffix when it has uncommitted changes; "" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	label := flag.String("label", "", "label for this benchmark run (required)")
	out := flag.String("o", "BENCH_sim.json", "trajectory file to merge into")
	flag.Parse()
	if err := run(*label, gitCommit(), *out, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
