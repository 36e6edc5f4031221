package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microtools/internal/analysis"
	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/sim"
	"microtools/internal/xmlspec"
)

// Layer span names. The traced run records one span around each public
// call the program makes on the path campaign.Run and launcher.Launch
// take; the program itself is not instrumented.
const (
	spanParse     = "xmlspec.parse"   // xmlspec.Parse
	spanPasses    = "passes"          // core.GenerateStream + Program.Lowered
	spanKey       = "campaign.key"    // Keyer.Key, campaign.Key
	spanGet       = "campaign.get"    // Cache.Get
	spanPut       = "campaign.put"    // Cache.Put
	spanBounds    = "dataflow.bounds" // dataflow.KernelBounds
	spanBuild     = "sim.build"       // machine.ByName + sim.New + SetNoise
	spanLaunch    = "launcher.launch" // launcher.LaunchOn
	spanRank      = "analysis.rank"   // analysis.RankPerElement
	spanSubmit    = "service.submit"  // serviceclient Submit
	spanQueueWait = "service.queue_wait"
	spanStream    = "service.stream" // started event → end event
	spanResult    = "service.result" // serviceclient Result
)

// acc accumulates one layer's spans.
type acc struct {
	D time.Duration
	N int64
}

// lane records the spans of one goroutine. Spans on one lane never
// overlap, so busy is the part of the lane's wall clock the layers cover.
// A nil lane records nothing (the untraced path).
type lane struct {
	layers map[string]*acc
	counts map[string]float64
	busy   time.Duration
}

func newLane() *lane {
	return &lane{layers: map[string]*acc{}, counts: map[string]float64{}}
}

// span closes a span that began at start.
func (l *lane) span(layer string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	a := l.layers[layer]
	if a == nil {
		a = &acc{}
		l.layers[layer] = a
	}
	a.D += d
	a.N++
	l.busy += d
}

// add bumps a counter recorded at a layer boundary.
func (l *lane) add(name string, v float64) {
	if l != nil {
		l.counts[name] += v
	}
}

// count reads a counter (0 on a nil lane).
func (l *lane) count(name string) float64 {
	if l == nil {
		return 0
	}
	return l.counts[name]
}

// busyTime is the lane's span time so far (0 on a nil lane).
func (l *lane) busyTime() time.Duration {
	if l == nil {
		return 0
	}
	return l.busy
}

// merge folds o's layers and counters into l (not its busy time: lanes
// run side by side, so their busy times do not add up on one clock).
func (l *lane) merge(o *lane) {
	if l == nil || o == nil {
		return
	}
	for k, a := range o.layers {
		b := l.layers[k]
		if b == nil {
			b = &acc{}
			l.layers[k] = b
		}
		b.D += a.D
		b.N += a.N
	}
	for k, v := range o.counts {
		l.counts[k] += v
	}
}

// Counter names recorded at layer boundaries.
const (
	cntVariants   = "variants"
	cntGets       = "cache.gets"
	cntHits       = "cache.hits"
	cntPuts       = "cache.puts"
	cntBuilds     = "sim.builds"
	cntLaunches   = "launches"
	cntTopups     = "topup.launches"
	cntReps       = "reps"
	cntRepsSaved  = "reps.saved"
	cntL1Hits     = "memsim.l1.hits"
	cntL1Misses   = "memsim.l1.misses"
	cntDRAMLines  = "memsim.dram.lines"
	cntVariantNS  = "variant.ns"     // Σ per-variant time on worker lanes
	cntWorkerNS   = "worker.ns"      // Σ worker-phase wall × workers
	cntBuildOnPfx = "sim.builds.on:" // per-machine build count
)

// replayCampaign replays one campaign.Run call layer by layer on the given
// cache: parse and generate on l, measure every variant over workers lanes
// (workers == 1 measures on l itself), run the adaptive top-up pass as
// campaign.Run does, and rank. It returns the variants' measurements in
// generation order and the critical path: l's spans plus, for each
// parallel phase, the busiest lane. A nil l replays without recording
// anything, the untraced half of the tracing-overhead pair.
func replayCampaign(ctx context.Context, in campaignInput, spec []byte, cache *campaign.Cache, workers int, l *lane, e *env) ([]resultRow, time.Duration, error) {
	busy0 := l.busyTime()
	var parallel time.Duration

	t := time.Now()
	if _, err := xmlspec.Parse(bytes.NewReader(spec)); err != nil {
		return nil, 0, err
	}
	l.span(spanParse, t)

	var progs []codegen.Program
	t = time.Now()
	if _, err := core.GenerateStream(ctx, bytes.NewReader(spec), core.GenerateOptions{}, func(p codegen.Program) error {
		progs = append(progs, p)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	kernels := make([]*isa.Program, len(progs))
	for i := range progs {
		k, err := progs[i].Lowered()
		if err != nil {
			return nil, 0, err
		}
		kernels[i] = k
	}
	l.span(spanPasses, t)
	l.add(cntVariants, float64(len(progs)))

	launch := in.Launch
	launch.Metrics = e.metrics
	var plan *launcher.Plan
	if in.Adaptive != nil {
		p := in.Adaptive.Resolve(launch.OuterReps)
		plan = &p
		launch.Adaptive = plan
	}
	desc, err := machine.ByName(launch.MachineName)
	if err != nil {
		return nil, 0, err
	}
	keyer, err := campaign.NewKeyer(launch)
	if err != nil {
		return nil, 0, err
	}

	ms := make([]*launcher.Measurement, len(kernels))
	errs := make([]error, len(kernels))
	measureVariant := func(w *lane, i int) {
		start := time.Now()
		defer func() { w.add(cntVariantNS, float64(time.Since(start))) }()
		t := time.Now()
		_, _ = dataflow.KernelBounds(kernels[i], desc.Arch)
		w.span(spanBounds, t)
		t = time.Now()
		key, err := keyer.Key(kernels[i])
		w.span(spanKey, t)
		if err != nil {
			errs[i] = err
			return
		}
		ms[i], errs[i] = measure(ctx, w, e, cache, key, kernels[i], launch)
	}

	phaseStart := time.Now()
	if workers <= 1 {
		for i := range kernels {
			measureVariant(l, i)
		}
		l.add(cntWorkerNS, float64(time.Since(phaseStart)))
	} else {
		parallel += runLanes(l, workers, len(kernels), measureVariant)
		l.add(cntWorkerNS, float64(time.Since(phaseStart))*float64(workers))
	}
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", progs[i].Name, err)
		}
	}

	if plan != nil {
		// The top-up pass of campaign.Run: the repetitions the main pass
		// saved are split evenly, in generation order, across the
		// variants whose achieved RCIW missed the target.
		saved := 0
		var cands []int
		for i, m := range ms {
			if m.Adaptive == nil {
				continue
			}
			if d := plan.MaxReps - m.Adaptive.Reps; d > 0 {
				saved += d
			}
			if m.Adaptive.RCIW > plan.TargetRCIW {
				cands = append(cands, i)
			}
		}
		l.add(cntRepsSaved, float64(saved))
		if len(cands) > 0 && saved/len(cands) > 0 {
			extra := saved / len(cands)
			topUp := func(w *lane, c int) {
				i := cands[c]
				tplan := *plan
				tplan.MinReps = ms[i].Adaptive.Reps + 1
				tplan.MaxReps = ms[i].Adaptive.Reps + extra
				topts := launch
				topts.Adaptive = &tplan
				t := time.Now()
				key, err := campaign.Key(kernels[i], topts)
				w.span(spanKey, t)
				if err != nil {
					errs[i] = err
					return
				}
				launches := w.count(cntLaunches)
				m, err := measure(ctx, w, e, cache, key, kernels[i], topts)
				if err != nil {
					return // the main-pass measurement stands, as in campaign.Run
				}
				w.add(cntTopups, w.count(cntLaunches)-launches)
				ms[i] = m
			}
			n := workers
			if n > len(cands) {
				n = len(cands)
			}
			if n <= 1 {
				for c := range cands {
					topUp(l, c)
				}
			} else {
				parallel += runLanes(l, n, len(cands), topUp)
			}
			for _, i := range cands {
				if errs[i] != nil {
					return nil, 0, fmt.Errorf("%s: top-up key: %w", progs[i].Name, errs[i])
				}
			}
		}
	}

	t = time.Now()
	analysis.RankPerElement(ms)
	l.span(spanRank, t)

	rows := make([]resultRow, len(ms))
	for i, m := range ms {
		rows[i] = rowOf(0, i, progs[i].Name, m, nil)
	}
	return rows, l.busyTime() - busy0 + parallel, nil
}

// runLanes runs task(w, i) for i in [0, n) over k fresh lanes, folds the
// lanes into l and returns the busiest lane's busy time. With a nil l the
// lanes are nil too and record nothing.
func runLanes(l *lane, k, n int, task func(w *lane, i int)) time.Duration {
	lanes := make([]*lane, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range lanes {
		if l != nil {
			lanes[w] = newLane()
		}
		wg.Add(1)
		go func(w *lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(w, i)
			}
		}(lanes[w])
	}
	wg.Wait()
	var most time.Duration
	for _, w := range lanes {
		l.merge(w)
		if w.busyTime() > most {
			most = w.busyTime()
		}
	}
	return most
}

// measure is the cache-consulting launch of one variant: Get, and on a
// miss build a fresh machine, LaunchOn it and Put the canonical result.
func measure(ctx context.Context, w *lane, e *env, cache *campaign.Cache, key string, kernel *isa.Program, opts launcher.Options) (*launcher.Measurement, error) {
	t := time.Now()
	m, hit := cache.Get(key)
	w.span(spanGet, t)
	w.add(cntGets, 1)
	if hit {
		w.add(cntHits, 1)
		return m, nil
	}

	t = time.Now()
	mach, err := buildMachine(opts)
	w.span(spanBuild, t)
	if err != nil {
		return nil, err
	}
	w.add(cntBuilds, 1)
	w.add(cntBuildOnPfx+opts.MachineName, 1)

	t = time.Now()
	m, err = launcher.LaunchOn(ctx, mach, kernel, opts)
	w.span(spanLaunch, t)
	if err != nil {
		return nil, err
	}
	w.add(cntLaunches, 1)
	w.add(cntReps, float64(m.Summary.N))
	w.add(cntL1Hits, float64(m.MemStats.L1Hits))
	w.add(cntL1Misses, float64(m.MemStats.L1Misses))
	w.add(cntDRAMLines, float64(m.MemStats.BytesFromMemory)/64)

	t = time.Now()
	canon, err := cache.Put(key, m)
	w.span(spanPut, t)
	w.add(cntPuts, 1)
	if err != nil {
		return nil, err
	}
	return canon, nil
}

// buildMachine is the machine construction launcher.Launch performs
// before LaunchOn.
func buildMachine(opts launcher.Options) (*sim.Machine, error) {
	desc, err := machine.ByName(opts.MachineName)
	if err != nil {
		return nil, err
	}
	mach, err := sim.New(desc)
	if err != nil {
		return nil, err
	}
	if !opts.DisableInterrupts {
		if err := mach.SetNoise(sim.DefaultNoise(opts.NoiseSeed)); err != nil {
			return nil, err
		}
	}
	return mach, nil
}

// buildKB samples the host kilobytes one machine build allocates, built
// serially so no other goroutine's allocations are counted, weighted by
// how often the traced pass built each machine.
func buildKB(l *lane, opts map[string]launcher.Options) (float64, error) {
	const samples = 3
	var kb, builds float64
	names := make([]string, 0, len(opts))
	for n := range opts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		n := l.counts[cntBuildOnPfx+name]
		if n == 0 {
			continue
		}
		a0 := allocBytes()
		for i := 0; i < samples; i++ {
			if _, err := buildMachine(opts[name]); err != nil {
				return 0, err
			}
		}
		kb += n * float64(allocBytes()-a0) / samples / 1024
		builds += n
	}
	if builds == 0 {
		return 0, nil
	}
	return kb / builds, nil
}
