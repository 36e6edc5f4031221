package main

import (
	"context"
	"os"
	"time"

	"microtools/internal/campaign"
	"microtools/internal/launcher"
)

// coverageTolerance is how far the traced run's critical path — the layer
// spans on the serial path plus the busiest lane of every parallel phase —
// may fall short of its wall clock. The remainder is the benchmark's own
// glue between calls (queues, bookkeeping, checks).
const coverageTolerance = 0.10

// maxBuildShareDRAM is the share of layer time machine builds may take on
// dram-adaptive, whose time must go to simulating DRAM traffic.
const maxBuildShareDRAM = 0.02

// traceTotals accumulates a traced run: the merged span lane, the wall
// clock and critical path of the traced passes, and the tracing overhead
// pairs.
type traceTotals struct {
	l        *lane
	passes   int
	wall     time.Duration
	critical time.Duration
	insts    int64
	overhead []float64 // traced ÷ untraced wall − 1, per pair
	buildKB  []float64
}

// traceCampaigns is the traced run of a campaign workload. Each pass runs
// the inputs through campaign.Run untraced, then replays them layer by
// layer twice on fresh caches, once without spans and once with them, in
// alternating order. Both replays must reproduce campaign.Run's results
// bit for bit; the pair gives the tracing overhead on the same work.
func (e *env) traceCampaigns(ctx context.Context, cfg config, out *outcome) error {
	tt := traceTotals{l: newLane()}
	var digests []string
	start := time.Now()
	for pass := 0; pass == 0 || time.Now().Before(cfg.deadline(start)); pass++ {
		inputs, err := inputsFor(cfg.Workload, cfg.Seed, pass, cfg.Scale)
		if err != nil {
			return err
		}
		machines := map[string]launcher.Options{}
		for _, in := range inputs {
			machines[in.Launch.MachineName] = in.Launch
		}
		s, err := e.setupCampaigns(inputs)
		if err != nil {
			return err
		}
		_, rows, tl, err := e.runCampaignPass(ctx, inputs, s)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		out.Tally.add(tl)
		want, err := digest(rows)
		if err != nil {
			return err
		}
		digests = append(digests, want)

		spans := newLane()
		var traced, plain replayRun
		for _, on := range pairOrder(pass) {
			var l *lane
			if on {
				l = spans
			}
			insts0 := e.insts()
			r, err := e.replayInputs(ctx, inputs, l)
			if err != nil {
				return err
			}
			if d, err := digest(r.rows); err != nil {
				return err
			} else if d != want {
				out.Tally.violation("replay results (traced=%t) differ from campaign.Run's (digest %s)", on, d)
			}
			if on {
				tt.insts += e.insts() - insts0
				traced = r
			} else {
				plain = r
			}
		}
		kb, err := buildKB(spans, machines)
		if err != nil {
			return err
		}
		tt.add(spans, traced.wall, traced.critical, kb)
		tt.overhead = append(tt.overhead, traced.wall.Seconds()/plain.wall.Seconds()-1)
	}
	out.Digest, _ = digest(digests) // strings always encode
	tt.report(cfg.Workload, out)
	return nil
}

// pairOrder is the order of the untraced (false) and traced (true) halves
// of a tracing-overhead pair; it alternates so slow drift of the host
// cancels out.
func pairOrder(round int) []bool {
	if round%2 == 0 {
		return []bool{false, true}
	}
	return []bool{true, false}
}

// replayRun is one layer-by-layer replay of a pass's inputs.
type replayRun struct {
	rows     []resultRow
	wall     time.Duration
	critical time.Duration
}

// replayInputs replays every input of a pass on a fresh cache, recording
// spans on l (nil: none).
func (e *env) replayInputs(ctx context.Context, inputs []campaignInput, l *lane) (replayRun, error) {
	var r replayRun
	s, err := e.setupCampaigns(inputs)
	if err != nil {
		return r, err
	}
	t := time.Now()
	for i, in := range inputs {
		rows, cp, err := replayCampaign(ctx, in, s.specs[in.Spec], s.cache, campaignWorkers, l, e)
		if err != nil {
			s.close()
			return r, err
		}
		for _, row := range rows {
			row.Input = i
			r.rows = append(r.rows, row)
		}
		r.critical += cp
	}
	r.wall = time.Since(t)
	return r, s.close()
}

// traceServe is the traced serve-mixed run. Each round takes the next
// block of the job sequence and drives it through two fresh daemons, one
// with client-side service spans and one without, then replays the
// block's campaigns layer by layer on two fresh caches, again with and
// without spans; each pair runs in alternating order. The traced halves
// give the per-layer metrics, the pairs the tracing overhead on the same
// work.
func (e *env) traceServe(ctx context.Context, cfg config, out *outcome) error {
	specs, err := e.readSpecs(cfg.Scale.ServeSpecs)
	if err != nil {
		return err
	}
	rejected0 := e.reg.Counter("service.jobs.rejected").Value()
	machines := map[string]launcher.Options{}
	for _, m := range cfg.Scale.ServeMachines {
		l := serveBase()
		l.MachineName = m
		machines[m] = l
	}
	seq := newServeSeq(cfg.Seed, cfg.Scale)
	tt := traceTotals{l: newLane()}
	start := time.Now()
	for round := 0; round == 0 || time.Now().Before(cfg.deadline(start)); round++ {
		block, err := seq.next()
		if err != nil {
			return err
		}
		spans := newLane()
		var traced, plain blockResult
		for _, on := range pairOrder(round) {
			var l *lane
			if on {
				l = spans
			}
			dm, err := e.startDaemon(ctx, cfg.Scale)
			if err != nil {
				return err
			}
			br := e.runBlock(ctx, dm, block, on, l)
			if err := dm.stop(); err != nil {
				return err
			}
			out.Tally.add(br.Tally)
			if on {
				traced = br
			} else {
				plain = br
			}
		}
		if out.Digest == "" {
			out.Digest, _ = digest(plain.Rows) // raw JSON payloads always encode
		}
		var replayWall, replayPlain, critical time.Duration
		for _, on := range pairOrder(round) {
			var l *lane
			if on {
				l = spans
			}
			insts0 := e.insts()
			cachePath := e.freshPath("replay-cache")
			cache, err := campaign.OpenCache(cachePath)
			if err != nil {
				return err
			}
			t := time.Now()
			cp, err := e.replayBlock(ctx, specs, block, cache, l)
			wall := time.Since(t)
			if cerr := cache.Close(); err == nil {
				err = cerr
			}
			if rerr := os.Remove(cachePath); err == nil {
				err = rerr
			}
			if err != nil {
				return err
			}
			if on {
				tt.insts += e.insts() - insts0
				replayWall, critical = wall, cp
			} else {
				replayPlain = wall
			}
		}
		kb, err := buildKB(spans, machines)
		if err != nil {
			return err
		}
		tt.add(spans, traced.Sample.Run+replayWall, traced.Critical+critical, kb)
		tt.overhead = append(tt.overhead, (traced.Sample.Run+replayWall).Seconds()/(plain.Sample.Run+replayPlain).Seconds()-1)
	}
	tt.l.add("service.rejected", float64(e.reg.Counter("service.jobs.rejected").Value()-rejected0))
	tt.report(cfg.Workload, out)
	return nil
}

func (tt *traceTotals) add(pass *lane, wall, critical time.Duration, kb float64) {
	tt.l.merge(pass)
	tt.passes++
	tt.wall += wall
	tt.critical += critical
	tt.buildKB = append(tt.buildKB, kb)
}

// report sets the per-layer metrics, then runs the composition check and
// the workload-purpose check.
func (tt *traceTotals) report(workload string, out *outcome) {
	l := tt.l
	per := func(n float64) float64 { return n / float64(tt.passes) }
	mean := func(layer string, unit time.Duration) float64 {
		a := l.layers[layer]
		if a == nil || a.N == 0 {
			return 0
		}
		return float64(a.D) / float64(a.N) / float64(unit)
	}
	total := func(layer string) time.Duration {
		if a := l.layers[layer]; a != nil {
			return a.D
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := l.counts
	parse, passes := l.layers[spanParse], l.layers[spanPasses]
	var parseMean float64
	if parse != nil && parse.N > 0 {
		parseMean = float64(parse.D) / float64(parse.N)
	}
	var passesSelf float64
	if passes != nil {
		// GenerateStream parses the spec again inside; its self time
		// leaves that parse to xmlspec.
		passesSelf = float64(passes.D) - parseMean*float64(passes.N)
	}
	launchD := total(spanLaunch)

	out.set("xmlspec.parse_ms", mean(spanParse, time.Millisecond), "ms")
	out.set("passes.variants", per(c[cntVariants]), "count")
	out.set("passes.us_per_variant", ratio(passesSelf/1e3, c[cntVariants]), "us")
	out.set("campaign.key_us", mean(spanKey, time.Microsecond), "us")
	out.set("campaign.cache_get_us", mean(spanGet, time.Microsecond), "us")
	out.set("campaign.cache_put_us", mean(spanPut, time.Microsecond), "us")
	out.set("campaign.cache_hit_ratio", ratio(c[cntHits], c[cntGets]), "ratio")
	out.set("campaign.worker_busy_frac", ratio(c[cntVariantNS], c[cntWorkerNS]), "fraction")
	out.set("campaign.topup_launches", per(c[cntTopups]), "count")
	out.set("dataflow.bounds_us", mean(spanBounds, time.Microsecond), "us")
	out.set("sim.builds", per(c[cntBuilds]), "count")
	out.set("sim.build_us", mean(spanBuild, time.Microsecond), "us")
	out.set("sim.build_kb", median(tt.buildKB), "KB")
	out.set("launcher.launch_us", mean(spanLaunch, time.Microsecond), "us")
	out.set("launcher.reps", per(c[cntReps]), "count")
	out.set("launcher.reps_saved", per(c[cntRepsSaved]), "count")
	out.set("sim.minsts_per_s", ratio(float64(tt.insts)/1e6, launchD.Seconds()), "Minsts/s")
	out.set("memsim.l1_miss_ratio", ratio(c[cntL1Misses], c[cntL1Hits]+c[cntL1Misses]), "ratio")
	out.set("memsim.dram_lines", per(c[cntDRAMLines]), "count")
	out.set("analysis.rank_us", mean(spanRank, time.Microsecond), "us")
	out.set("service.submit_ms", mean(spanSubmit, time.Millisecond), "ms")
	out.set("service.result_ms", mean(spanResult, time.Millisecond), "ms")
	out.set("service.queue_wait_ms", mean(spanQueueWait, time.Millisecond), "ms")
	out.set("service.stream_ms", mean(spanStream, time.Millisecond), "ms")
	out.set("service.events_per_job", ratio(c["service.events"], c["service.jobs"]), "count")
	out.set("service.rejected", c["service.rejected"], "count")

	coverage := ratio(tt.critical.Seconds(), tt.wall.Seconds())
	out.set("trace.coverage", coverage, "fraction")
	out.set("trace.overhead_frac", median(tt.overhead), "fraction")
	out.linef("(%d traced passes, %.3fs traced wall, critical path %.3fs)", tt.passes, tt.wall.Seconds(), tt.critical.Seconds())
	if coverage < 1-coverageTolerance || coverage > 1.001 {
		out.Tally.violation("composition: layer spans cover %.3f of the traced wall clock, want within %g of 1", coverage, coverageTolerance)
	}

	// Campaign-layer totals, passes by its self time.
	layerNames := []string{spanParse, spanPasses, spanKey, spanGet, spanPut, spanBounds, spanBuild, spanLaunch, spanRank}
	var sum time.Duration
	largest, largestName := time.Duration(0), ""
	for _, n := range layerNames {
		d := total(n)
		if n == spanPasses {
			d = time.Duration(passesSelf)
		}
		sum += d
		if d > largest {
			largest, largestName = d, n
		}
	}
	checkResidency(workload, c[cntL1Hits], c[cntL1Misses], c[cntDRAMLines], &out.Tally)
	build := total(spanBuild)
	buildShare := ratio(build.Seconds(), sum.Seconds())
	out.linef("%-28s %16.6g fraction of campaign-layer time (largest layer: %s)", "sim.build_share", buildShare, largestName)
	switch workload {
	case sweepCold:
		if largestName != spanBuild {
			out.Tally.violation("purpose: sweep-cold's largest layer is %s, not the machine build", largestName)
		}
	case dramAdaptive:
		if buildShare >= maxBuildShareDRAM {
			out.Tally.violation("purpose: machine build is %.3f of dram-adaptive's layer time, want under %g", buildShare, maxBuildShareDRAM)
		}
		if c[cntTopups] == 0 && c[cntRepsSaved] == 0 {
			out.Tally.violation("purpose: dram-adaptive exercised neither adaptive stopping nor top-ups")
		}
	case serveMixed:
		if c[cntHits] == 0 || c[cntPuts] == 0 {
			out.Tally.violation("purpose: serve-mixed must read the cache beside writing it (hits %g, puts %g)", c[cntHits], c[cntPuts])
		}
	}
}
