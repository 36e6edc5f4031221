package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// benchmark starts its calibration loop as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-calibrate" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileCountsAndRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	p90, err := pct(xs, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p90.Value != 90 || p90.N != 100 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90 over 100 samples", p90)
	}
	if _, err := pct(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want a refusal")
	}
	p50, err := pct(xs[:20], 50)
	if err != nil || p50.N != 20 {
		t.Fatalf("p50 of 20 samples = %+v, %v; want 10 beyond it accepted", p50, err)
	}
	if _, err := pct(nil, 50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestFailedFracAccounting(t *testing.T) {
	var a tally
	a.ok()
	a.ok()
	a.ok()
	a.fail("variant %d failed", 4)
	if a.Attempted != 4 || a.Failed != 1 || a.frac() != 0.25 {
		t.Fatalf("3 ok + 1 failed = %+v (frac %g), want 1 of 4", a, a.frac())
	}
	var b tally
	b.ok()
	b.violation("digest changed")
	a.add(b)
	if a.Attempted != 5 || a.Failed != 2 || len(a.Reasons) != 2 {
		t.Fatalf("merged tally = %+v, want 2 failed of 5 attempted with both reasons", a)
	}
	if (tally{}).frac() != 0 {
		t.Fatal("an empty tally has no failures")
	}
}

func TestSeededInputsRepeatAndVary(t *testing.T) {
	if !reflect.DeepEqual(sweepInputs(7, 2, fullScale), sweepInputs(7, 2, fullScale)) {
		t.Fatal("sweep-cold inputs differ for the same seed")
	}
	d1, err := dramInputs(7, 1, fullScale)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := dramInputs(7, 1, fullScale)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("dram-adaptive inputs differ for the same seed")
	}
	sweeps, drams := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		s, _ := json.Marshal(sweepInputs(seed, 0, fullScale))
		sweeps[string(s)] = true
		in, _ := dramInputs(seed, 0, fullScale)
		d, _ := json.Marshal(in)
		drams[string(d)] = true
	}
	if len(sweeps) < 2 || len(drams) < 2 {
		t.Fatalf("six seeds gave %d sweep and %d dram input sets; want them to vary", len(sweeps), len(drams))
	}

	blocks := func(seed int64) [][]serveJob {
		seq := newServeSeq(seed, fullScale)
		var out [][]serveJob
		for i := 0; i < 3; i++ {
			b, err := seq.next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	if !reflect.DeepEqual(blocks(7), blocks(7)) {
		t.Fatal("serve-mixed job sequences differ for the same seed")
	}
	if reflect.DeepEqual(blocks(7), blocks(8)) {
		t.Fatal("serve-mixed job sequences are equal for different seeds")
	}
	seen := map[string]bool{}
	for _, b := range blocks(7) {
		if want := 2 * fullScale.ServeColdPerSpec * len(fullScale.ServeSpecs); len(b) != want {
			t.Fatalf("block of %d jobs, want %d", len(b), want)
		}
		for i, j := range b {
			if j.Orig < 0 {
				k, _ := json.Marshal([]any{j.Spec, j.Req.Machine, j.Req.ArrayBytes})
				if seen[string(k)] {
					t.Fatalf("cold job %d repeats an earlier request %s", i, k)
				}
				seen[string(k)] = true
				continue
			}
			o := b[j.Orig]
			if j.Orig >= i || o.Orig >= 0 {
				t.Fatalf("warm job %d repeats job %d, which is not an earlier cold job", i, j.Orig)
			}
			if o.Req.Tenant == j.Req.Tenant || o.Spec != j.Spec || o.Req.Machine != j.Req.Machine || o.Req.ArrayBytes != j.Req.ArrayBytes {
				t.Fatalf("warm job %d is not its original's request under another tenant", i)
			}
		}
	}
}

// tinyScale shrinks every workload so a smoke run takes seconds: one sweep
// machine, the DRAM study on a /64 machine (arrays still 4× its L3), and
// the serve mix over the small specs.
var tinyScale = scale{
	SweepSpec:        "specs/loadstore_movaps.xml",
	SweepMachines:    []string{"nehalem-dual/8"},
	DRAMSpecs:        []string{"specs/arith_hiding.xml"},
	DRAMMachine:      "nehalem-quad/64",
	ServeSpecs:       []string{"specs/arith_hiding.xml", "specs/stride_study.xml", "specs/stencil3.xml"},
	ServeMachines:    []string{"nehalem-dual/8", "sandybridge/8"},
	ServeColdPerSpec: 2,
}

// benchmarkJSON is the metric contract in BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs simulate real workloads")
	}
	contract := readContract(t)
	for _, w := range contract.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			t.Run(w+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{Workload: w, Seed: 3, Trace: traced, Root: "..", Scale: tinyScale}
				out, err := execute(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.Tally.Failed != 0 || out.Tally.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", out.Tally.Failed, out.Tally.Attempted, out.Tally.Reasons)
				}
				want := contract.EndToEnd
				if traced {
					want = contract.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestOutputEndsWithOneResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep-cold workload")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "sweep-cold", "--seed", "2", "--seconds", "0", "--trace", "0", "-root", ".."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	for _, want := range []string{"not validated against hardware", "meta {", "digest sha256:", "failed_frac"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("an unknown workload must exit non-zero")
	}
}
