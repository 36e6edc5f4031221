// Command perfbench is the repository benchmark. It drives the program
// through its public entry points — campaign.Run for campaigns, an
// in-process service daemon over loopback for the service — on one of
// three seeded workloads, checks every simulated result, and prints each
// metric by name and unit, ending with one JSON line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the workload layer by layer and reports per-layer metrics. See
// perfbench/README.md for the workloads, metrics and predictions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Root     string // checkout root
	Scale    scale
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured and checked.
type outcome struct {
	Metrics map[string]metric // the JSON metrics of this mode
	Lines   []string          // report lines printed before the JSON
	Tally   tally
	Digest  string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
	o.Lines = append(o.Lines, fmt.Sprintf("%-28s %16.6g %s", name, v, unit))
}

func (o *outcome) linef(format string, args ...any) {
	o.Lines = append(o.Lines, fmt.Sprintf(format, args...))
}

// Set-up timing: setup_s is the median over setupBatches batches, each
// the time of setupBatch set-ups made back to back divided by setupBatch,
// all made before the run measures. One set-up takes tens of microseconds
// to a few milliseconds, mostly file-system and socket calls, where a
// single page fault or scheduler wake-up is a large share; a batch spreads
// those over many set-ups. The batches stay few because every set-up
// creates and deletes files, and on a shared virtual machine heavy churn
// makes later file-system calls slower for minutes, this run's and the
// next run's alike.
const (
	setupBatches = 9
	setupBatch   = 30
)

// minLatencySamples is how many cold and how many warm jobs a serve-mixed
// run collects at least, so that each p90 has ten samples beyond it.
const minLatencySamples = 100

// maxExtend bounds how long serve-mixed may run past --seconds to collect
// its minimum latency samples.
const maxExtend = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sweep-cold | dram-adaptive | serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced layer-by-layer run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root (holds specs/)")
	calib := fs.Bool("calibrate", false, "time one host calibration loop and print the time (the benchmark runs this in a child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calib {
		if err := calibrate(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		return 0
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Root: *root, Scale: fullScale,
	}
	out, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d\n", cfg.Workload, cfg.Seed, cfg.Seconds, *trace)
	fmt.Fprintln(w, "note: results come from the simulated machine model, which is not validated against hardware; no accuracy figure is given")
	meta, _ := json.Marshal(metadata(cfg)) // strings and ints always encode
	fmt.Fprintf(w, "meta %s\n", meta)
	fmt.Fprintf(w, "digest sha256:%s\n", out.Digest)
	for _, l := range out.Lines {
		fmt.Fprintln(w, l)
	}
	for _, r := range out.Tally.Reasons {
		fmt.Fprintf(w, "FAILED: %s\n", r)
	}
	final, _ := json.Marshal(struct { // finite floats, ints and strings always encode
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Tally.Failed == 0, out.Tally.Attempted, out.Tally.Failed, out.Metrics})
	fmt.Fprintln(w, string(final))
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if out.Tally.Failed > 0 {
		return 1
	}
	return 0
}

// execute runs one workload in one mode.
func execute(ctx context.Context, cfg config) (*outcome, error) {
	if !cfg.known() {
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.Workload, sweepCold, dramAdaptive, serveMixed)
	}
	e, err := newRunEnv(cfg.Root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	out := &outcome{}
	switch {
	case cfg.Workload == serveMixed && cfg.Trace:
		err = e.traceServe(ctx, cfg, out)
	case cfg.Workload == serveMixed:
		err = e.measureServe(ctx, cfg, out)
	case cfg.Trace:
		err = e.traceCampaigns(ctx, cfg, out)
	default:
		err = e.measureCampaigns(ctx, cfg, out)
	}
	if err != nil {
		return nil, err
	}
	out.linef("%-28s %16.6g fraction (%d of %d operations)", "failed_frac", out.Tally.frac(), out.Tally.Failed, out.Tally.Attempted)
	return out, nil
}

// newRunEnv makes the run's work directory under .bench_build.
func newRunEnv(root string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return newEnv(root, work), nil
}

// known reports whether the workload name is one of the three.
func (c config) known() bool {
	switch c.Workload {
	case sweepCold, dramAdaptive, serveMixed:
		return true
	}
	return false
}

// deadline is when the measurement window of a run closes.
func (c config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.Seconds * float64(time.Second)))
}

// endToEnd sets the end-to-end metrics from the untraced passes: each
// rate over every complete cycle of passes, then the median over cycles.
// Rates are scaled to the reference host by the calibration loop; the
// report also prints them unscaled. Set-up time and allocation are not
// scaled.
func endToEnd(out *outcome, samples []passSample, cycle int, setups []float64, ref *hostRef) {
	var rate, minsts, alloc, busy []float64
	for i := 0; i+cycle <= len(samples); i += cycle {
		var c passSample
		for _, s := range samples[i : i+cycle] {
			c.Run += s.Run
			c.CPU += s.CPU
			c.Variants += s.Variants
			c.Insts += s.Insts
			c.Alloc += s.Alloc
		}
		sec := c.Run.Seconds()
		rate = append(rate, float64(c.Variants)/sec)
		minsts = append(minsts, float64(c.Insts)/1e6/sec)
		alloc = append(alloc, float64(c.Alloc)/1e6/float64(cycle))
		busy = append(busy, c.CPU.Seconds()/sec)
	}
	f := ref.factor()
	out.set("variants_per_s", median(rate)*f, "variants/s")
	out.set("sim_minsts_per_s", median(minsts)*f, "Minsts/s")
	out.set("alloc_mb", median(alloc), "MB")
	out.set("setup_s", median(setups), "s")
	out.linef("(medians over %d passes in %d cycles of %d, and %d batches of %d set-ups; %.2f CPUs busy)",
		len(samples), len(rate), cycle, len(setups), setupBatch, median(busy))
	out.linef("(host scale %.4f: calibration loop %.4gs here, median of %d, %gs on the reference host; unscaled %.6g variants/s, %.6g Minsts/s)",
		f, median(ref.samples), len(ref.samples), refNominal, median(rate), median(minsts))
}

// setupTimer times batches of back-to-back set-ups.
type setupTimer struct {
	setup func() (teardown func() error, err error)
	per   []float64 // seconds per set-up, one value per batch
}

// time runs setupBatches batches of setupBatch set-ups. The set-ups of a
// batch are torn down after its timer stops.
func (st *setupTimer) time() error {
	for b := 0; b < setupBatches; b++ {
		closers := make([]func() error, 0, setupBatch)
		t := time.Now()
		var err error
		for i := 0; i < setupBatch && err == nil; i++ {
			var c func() error
			if c, err = st.setup(); err == nil {
				closers = append(closers, c)
			}
		}
		d := time.Since(t)
		for _, c := range closers {
			if cerr := c(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		st.per = append(st.per, d.Seconds()/setupBatch)
	}
	return nil
}

// measureCampaigns is the untraced run of a campaign workload: fresh-cache
// passes over the seeded inputs until the window closes and the last cycle
// is complete, at least two passes so a repeated input proves the
// results deterministic.
func (e *env) measureCampaigns(ctx context.Context, cfg config, out *outcome) error {
	first, err := inputsFor(cfg.Workload, cfg.Seed, 0, cfg.Scale)
	if err != nil {
		return err
	}
	setups := setupTimer{setup: func() (func() error, error) {
		s, err := e.setupCampaigns(first)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	}}
	if err := setups.time(); err != nil {
		return err
	}
	cycle := cycleOf(cfg.Workload)
	digests := make([]string, cycle)
	var ref hostRef
	var samples []passSample
	var rows []resultRow
	start := time.Now()
	for pass := 0; pass < 2 || pass%cycle != 0 || time.Now().Before(cfg.deadline(start)); pass++ {
		inputs, err := inputsFor(cfg.Workload, cfg.Seed, pass, cfg.Scale)
		if err != nil {
			return err
		}
		s, err := e.setupCampaigns(inputs)
		if err != nil {
			return err
		}
		sample, r, tl, err := e.runCampaignPass(ctx, inputs, s)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := ref.sample(samplesFor(sample.Run)); err != nil {
			return err
		}
		out.Tally.add(tl)
		slot := pass % cycle
		d, err := digest(r)
		if err != nil {
			return err
		}
		if digests[slot] == "" {
			digests[slot] = d
			rows = append(rows, r...)
		} else if d != digests[slot] {
			out.Tally.violation("pass %d results differ from pass %d on the same inputs", pass+1, slot+1)
		}
		samples = append(samples, sample)
	}
	out.Digest, _ = digest(digests) // strings always encode
	var hits, misses, dram float64
	for _, r := range rows {
		hits += float64(r.MemStats.L1Hits)
		misses += float64(r.MemStats.L1Misses)
		dram += float64(r.MemStats.BytesFromMemory) / 64
	}
	checkResidency(cfg.Workload, hits, misses, dram, &out.Tally)
	endToEnd(out, samples, cycle, setups.per, &ref)
	return nil
}

// checkResidency fails a run whose simulated memory traffic does not show
// the residency its workload is meant to have: L1-resident sweeps,
// DRAM-streaming studies.
func checkResidency(workload string, l1Hits, l1Misses, dramLines float64, t *tally) {
	switch ratio := l1Misses / math.Max(l1Hits+l1Misses, 1); {
	case workload == sweepCold && ratio > l1ResidentMissRatio:
		t.violation("purpose: sweep-cold is not L1-resident: L1 miss ratio %.4f > %g", ratio, l1ResidentMissRatio)
	case workload == dramAdaptive && dramLines == 0:
		t.violation("purpose: dram-adaptive read no lines from DRAM")
	}
}

// l1ResidentMissRatio is the highest L1 miss ratio an L1-resident sweep
// may show in its measured repetitions (after the warm-up call).
const l1ResidentMissRatio = 0.05

// measureServe is the untraced serve-mixed run: blocks of the seeded job
// sequence until the window closes and both latency classes have their
// minimum sample count.
func (e *env) measureServe(ctx context.Context, cfg config, out *outcome) error {
	setups := setupTimer{setup: func() (func() error, error) {
		dm, err := e.startDaemon(ctx, cfg.Scale)
		if err != nil {
			return nil, err
		}
		return dm.stop, nil
	}}
	if err := setups.time(); err != nil {
		return err
	}
	dm, err := e.startDaemon(ctx, cfg.Scale)
	if err != nil {
		return err
	}
	defer dm.stop()
	seq := newServeSeq(cfg.Seed, cfg.Scale)
	cycle := cycleOf(serveMixed)
	var (
		samples    []passSample
		cold, warm []float64
		ref        hostRef
	)
	start := time.Now()
	for len(samples) < cycle || len(samples)%cycle != 0 || time.Now().Before(cfg.deadline(start)) ||
		len(cold) < minLatencySamples || len(warm) < minLatencySamples {
		if time.Since(start) > time.Duration(cfg.Seconds*float64(time.Second))+maxExtend {
			break
		}
		block, err := seq.next()
		if err != nil {
			return err
		}
		br := e.runBlock(ctx, dm, block, false, nil)
		if err := ref.sample(samplesFor(br.Sample.Run)); err != nil {
			return err
		}
		out.Tally.add(br.Tally)
		if out.Digest == "" {
			out.Digest, _ = digest(br.Rows) // raw JSON payloads always encode
		}
		samples = append(samples, br.Sample)
		cold = append(cold, br.Cold...)
		warm = append(warm, br.Warm...)
	}
	endToEnd(out, samples, cycle, setups.per, &ref)
	latencies(out, "cold_job", cold)
	latencies(out, "warm_job", warm)
	return nil
}

// latencies prints p50 and p90 of one latency class with their sample
// counts; a p90 without ten samples beyond it fails the run.
func latencies(out *outcome, class string, ms []float64) {
	for _, p := range []float64{50, 90} {
		name := fmt.Sprintf("%s_p%g_ms", class, p)
		v, err := pct(ms, p)
		if err != nil {
			out.Tally.violation("%s: %v", name, err)
			continue
		}
		out.linef("%-28s %16.6g ms (n=%d)", name, v.Value, v.N)
	}
}

// runMeta is the host and build a result was measured on.
type runMeta struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func metadata(cfg config) runMeta {
	return runMeta{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
	}
}

// cpuModel is the host CPU's model name, from the kernel's cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the Go
// toolchain stamped it; a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
