package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"microtools/internal/campaign"
	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/memsim"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// campaignWorkers is the campaign launch pool of the campaign workloads:
// one busy thread per CPU of the 2-vCPU reference host.
const campaignWorkers = 2

// env is the state one benchmark run shares across its passes.
type env struct {
	root    string // checkout root: specs/ lives here
	work    string // work directory for caches and ledgers
	reg     *telemetry.Registry
	metrics *telemetry.Metrics
	seq     atomic.Int64 // names fresh cache and ledger files
}

func newEnv(root, work string) *env {
	reg := telemetry.NewRegistry()
	return &env{root: root, work: work, reg: reg, metrics: telemetry.NewMetrics(reg)}
}

// insts is the simulated instructions retired so far, across every launch
// that ran with e.metrics armed.
func (e *env) insts() int64 { return e.metrics.SimInstsRetired.Value() }

// freshPath names a file under the work directory that no earlier pass
// of this run used.
func (e *env) freshPath(kind string) string {
	return filepath.Join(e.work, fmt.Sprintf("%s-%d.jsonl", kind, e.seq.Add(1)))
}

// readSpecs reads spec files relative to the checkout root.
func (e *env) readSpecs(paths []string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, p := range paths {
		if _, ok := out[p]; ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(e.root, p))
		if err != nil {
			return nil, fmt.Errorf("read spec: %w", err)
		}
		out[p] = b
	}
	return out, nil
}

// resolveMachines resolves every machine descriptor a workload launches on.
func resolveMachines(names []string) error {
	for _, n := range names {
		if _, err := machine.ByName(n); err != nil {
			return err
		}
	}
	return nil
}

// allocBytes is the heap bytes allocated so far by the whole process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuTime is the user plus system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passSample is what one untraced pass measured.
type passSample struct {
	Run      time.Duration // wall clock of the pass, set-up excluded
	CPU      time.Duration // host CPU time of the whole process over the pass
	Variants int           // variants completed (measured or cache hits)
	Insts    int64         // simulated instructions retired
	Alloc    uint64        // host bytes allocated
}

// campaignSetup is what every campaign pass starts from: the specs read,
// the machines resolved and a fresh file-backed cache opened.
type campaignSetup struct {
	specs map[string][]byte
	cache *campaign.Cache
	path  string
}

func (e *env) setupCampaigns(inputs []campaignInput) (*campaignSetup, error) {
	var paths, machines []string
	for _, in := range inputs {
		paths = append(paths, in.Spec)
		machines = append(machines, in.Launch.MachineName)
	}
	specs, err := e.readSpecs(paths)
	if err != nil {
		return nil, err
	}
	if err := resolveMachines(machines); err != nil {
		return nil, err
	}
	path := e.freshPath("cache")
	cache, err := campaign.OpenCache(path)
	if err != nil {
		return nil, fmt.Errorf("open cache: %w", err)
	}
	return &campaignSetup{specs: specs, cache: cache, path: path}, nil
}

func (s *campaignSetup) close() error {
	err := s.cache.Close()
	if rerr := os.Remove(s.path); err == nil {
		err = rerr
	}
	return err
}

// resultRow is one variant's simulated result as the digest covers it:
// every field the simulator determines, nothing the host does.
type resultRow struct {
	Input       int
	Index       int
	Name        string
	Value       float64
	PerElement  float64
	Iterations  uint64
	Truncated   bool
	Stability   stats.Stability
	MemStats    memsim.Stats
	Adaptive    *launcher.AdaptiveOutcome
	ErrorString string `json:",omitempty"`
}

func rowOf(input, index int, name string, m *launcher.Measurement, err error) resultRow {
	r := resultRow{Input: input, Index: index, Name: name}
	if err != nil {
		r.ErrorString = err.Error()
	}
	if m != nil {
		r.Value, r.PerElement, r.Iterations, r.Truncated = m.Value, m.ValuePerElement, m.Iterations, m.Truncated
		r.Stability, r.MemStats, r.Adaptive = m.Stability, m.MemStats, m.Adaptive
	}
	return r
}

// digest hashes result rows in order. Equal digests mean bit-identical
// simulated results.
func digest(rows any) (string, error) {
	b, err := json.Marshal(rows)
	if err != nil {
		return "", fmt.Errorf("digest results: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// campaignOptions is the engine configuration of one campaign input:
// 2 workers, the static-bound oracle on, the pass's cache and the run's
// telemetry registry (which counts simulated instructions).
func (e *env) campaignOptions(in campaignInput, cache *campaign.Cache) campaign.Options {
	set := []campaign.Option{
		campaign.WithLaunch(in.Launch),
		campaign.WithWorkers(campaignWorkers),
		campaign.WithCache(cache),
		campaign.WithCheckBounds(true),
		campaign.WithMetrics(e.metrics),
	}
	if in.Adaptive != nil {
		set = append(set, campaign.WithAdaptive(*in.Adaptive))
	}
	return campaign.NewOptions(set...)
}

// runCampaignPass runs every input through campaign.Run once and checks
// each variant: it must succeed (the bound oracle reports violations as
// variant failures) and must not be truncated.
func (e *env) runCampaignPass(ctx context.Context, inputs []campaignInput, s *campaignSetup) (passSample, []resultRow, tally, error) {
	var (
		sample passSample
		rows   []resultRow
		t      tally
	)
	insts0, alloc0, cpu0 := e.insts(), allocBytes(), cpuTime()
	start := time.Now()
	for i, in := range inputs {
		res, err := campaign.Run(ctx, bytes.NewReader(s.specs[in.Spec]), core.GenerateOptions{}, e.campaignOptions(in, s.cache))
		var verr *campaign.Error
		if err != nil && !errors.As(err, &verr) {
			return sample, nil, t, fmt.Errorf("%s on %s: %w", in.Spec, in.Launch.MachineName, err)
		}
		for _, vr := range res.Results {
			rows = append(rows, rowOf(i, vr.Index, vr.Name, vr.Measurement, vr.Err))
			switch {
			case vr.Err != nil:
				t.fail("%s on %s: %v", vr.Name, in.Launch.MachineName, vr.Err)
			case vr.Measurement.Truncated:
				t.fail("%s on %s: truncated measurement", vr.Name, in.Launch.MachineName)
			default:
				t.ok()
			}
		}
		sample.Variants += len(res.Results)
	}
	sample.Run = time.Since(start)
	sample.CPU = cpuTime() - cpu0
	sample.Insts = e.insts() - insts0
	sample.Alloc = allocBytes() - alloc0
	return sample, rows, t, nil
}

// inputsFor generates the inputs of pass number pass of a campaign
// workload from the seed.
func inputsFor(workload string, seed int64, pass int, sc scale) ([]campaignInput, error) {
	switch workload {
	case sweepCold:
		return sweepInputs(seed, pass, sc), nil
	case dramAdaptive:
		return dramInputs(seed, pass, sc)
	}
	return nil, fmt.Errorf("%s is not a campaign workload", workload)
}
