package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	api "microtools/api/v1"
	"microtools/internal/campaign"
	"microtools/internal/launcher"
	"microtools/internal/service"
	"microtools/serviceclient"
)

// Load of serve-mixed: two closed-loop clients against two daemon job
// slots, each job measuring on one campaign worker.
const (
	serveClients = 2
	serveSlots   = 2
)

// daemon is one in-process microserved: its shared cache, job ledger,
// loopback listener and the client side that talks to it.
type daemon struct {
	specs     map[string][]byte
	cache     *campaign.Cache
	d         *service.Daemon
	transport *http.Transport
	client    *serviceclient.Client
	files     []string
}

// serveBase is the daemon's base launch configuration; every request
// overrides machine, array size and repetitions.
func serveBase() launcher.Options {
	l := launcher.DefaultOptions()
	l.MachineName = "nehalem-dual/8"
	return l
}

// startDaemon is the serve-mixed set-up: read the specs, resolve the
// machines, open a fresh cache and job ledger, start the daemon on
// loopback and wait until it answers.
func (e *env) startDaemon(ctx context.Context, sc scale) (*daemon, error) {
	specs, err := e.readSpecs(sc.ServeSpecs)
	if err != nil {
		return nil, err
	}
	if err := resolveMachines(sc.ServeMachines); err != nil {
		return nil, err
	}
	dm := &daemon{specs: specs}
	cachePath, ledger := e.freshPath("serve-cache"), e.freshPath("ledger")
	dm.files = []string{cachePath, ledger}
	if dm.cache, err = campaign.OpenCache(cachePath); err != nil {
		return nil, fmt.Errorf("open cache: %w", err)
	}
	dm.d, err = service.New(ctx, service.Options{
		MaxConcurrentJobs: serveSlots,
		Cache:             dm.cache,
		StorePath:         ledger,
		Launch:            serveBase(),
		Registry:          e.reg,
	})
	if err != nil {
		dm.cache.Close()
		return nil, err
	}
	addr, err := dm.d.Start("127.0.0.1:0")
	if err != nil {
		dm.stop()
		return nil, err
	}
	dm.transport = &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	base := "http://" + addr
	dm.client = &serviceclient.Client{Base: base, HTTP: &http.Client{Transport: dm.transport}}
	resp, err := dm.client.HTTP.Get(base + "/")
	if err != nil {
		dm.stop()
		return nil, fmt.Errorf("daemon does not answer: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		dm.stop()
		return nil, fmt.Errorf("daemon answers %s", resp.Status)
	}
	return dm, nil
}

// stop drains and closes the daemon and removes its files.
func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := dm.d.Drain(ctx)
	if cerr := dm.d.CloseHTTP(); err == nil {
		err = cerr
	}
	if cerr := dm.d.Close(); err == nil {
		err = cerr
	}
	if dm.transport != nil {
		dm.transport.CloseIdleConnections()
	}
	if cerr := dm.cache.Close(); err == nil {
		err = cerr
	}
	for _, f := range dm.files {
		if rerr := os.Remove(f); err == nil {
			err = rerr
		}
	}
	return err
}

// blockResult is what one block of the job sequence produced.
type blockResult struct {
	Sample passSample
	Cold   []float64 // submit → result latency of cold jobs, ms
	Warm   []float64 // the same for warm jobs, ms
	Rows   []json.RawMessage
	Tally  tally
	// Critical is the busiest client lane's span time (traced blocks).
	Critical time.Duration
}

// runBlock drives one block through the daemon with serveClients
// closed-loop clients. A warm job waits until its cold original has
// finished, so it is served from the cache. With lanes non-nil each
// client records its service spans on its own lane.
func (e *env) runBlock(ctx context.Context, dm *daemon, block []serveJob, traced bool, into *lane) blockResult {
	var (
		out      blockResult
		mu       sync.Mutex
		next     atomic.Int64
		wg       sync.WaitGroup
		done     = make([]chan struct{}, len(block))
		payloads = make([][]byte, len(block))
		variants atomic.Int64
	)
	out.Rows = make([]json.RawMessage, len(block))
	for i := range done {
		done[i] = make(chan struct{})
	}
	lanes := make([]*lane, serveClients)
	insts0, alloc0, cpu0 := e.insts(), allocBytes(), cpuTime()
	start := time.Now()
	for c := range lanes {
		if traced {
			lanes[c] = newLane()
		}
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(block) {
					return
				}
				j := block[i]
				if j.Orig >= 0 {
					select {
					case <-done[j.Orig]:
					case <-ctx.Done():
						return
					}
				}
				req := j.Req
				req.Spec = string(dm.specs[j.Spec])
				lat, res, err := runJob(ctx, dm.client, req, l)
				var payload []byte
				if err == nil {
					payload, err = json.Marshal(res.Campaign)
				}
				mu.Lock()
				if err == nil {
					err = checkJob(j, res, payload, payloads)
				}
				payloads[i] = payload
				out.Rows[i] = payload
				switch {
				case err != nil:
					out.Tally.fail("job %d (%s): %v", i, j.Spec, err)
				case j.Orig >= 0:
					out.Tally.ok()
					out.Warm = append(out.Warm, lat)
				default:
					out.Tally.ok()
					out.Cold = append(out.Cold, lat)
				}
				mu.Unlock()
				if res.Campaign != nil {
					variants.Add(int64(res.Campaign.Emitted))
				}
				close(done[i])
			}
		}(lanes[c])
	}
	wg.Wait()
	out.Sample = passSample{
		Run:      time.Since(start),
		CPU:      cpuTime() - cpu0,
		Variants: int(variants.Load()),
		Insts:    e.insts() - insts0,
		Alloc:    allocBytes() - alloc0,
	}
	for _, l := range lanes {
		if l == nil {
			continue
		}
		into.merge(l)
		if l.busy > out.Critical {
			out.Critical = l.busy
		}
	}
	return out
}

// runJob is one closed-loop step of a client: submit, follow the event
// stream to its end, fetch the result. It returns the submit → result
// latency in milliseconds.
func runJob(ctx context.Context, c *serviceclient.Client, req api.JobRequest, l *lane) (float64, api.JobResult, error) {
	t0 := time.Now()
	st, err := c.Submit(ctx, req)
	l.span(spanSubmit, t0)
	if err != nil {
		return 0, api.JobResult{}, fmt.Errorf("submit: %w", err)
	}
	queued := time.Now()
	var started time.Time
	events := 0
	err = c.Stream(ctx, st.ID, func(ev api.VariantEvent) error {
		events++
		if ev.Type == api.EventStarted && started.IsZero() {
			started = time.Now()
			l.span(spanQueueWait, queued)
		}
		return nil
	})
	if started.IsZero() {
		l.span(spanQueueWait, queued)
		started = queued
	}
	l.span(spanStream, started)
	l.add("service.events", float64(events))
	l.add("service.jobs", 1)
	if err != nil {
		return 0, api.JobResult{}, fmt.Errorf("stream: %w", err)
	}
	t := time.Now()
	res, err := c.Result(ctx, st.ID)
	l.span(spanResult, t)
	if err != nil {
		return 0, api.JobResult{}, fmt.Errorf("result: %w", err)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), res, nil
}

// checkJob checks one job's result: done, every variant measured without
// error and not truncated (a truncated run reports no per-element value),
// a cold job launched, and a warm job launched nothing and returned a
// campaign payload byte-identical to its cold original's.
func checkJob(j serveJob, res api.JobResult, payload []byte, payloads [][]byte) error {
	if res.Job.State != api.StateDone {
		return fmt.Errorf("job ended %s", res.Job.State)
	}
	if res.Campaign == nil || res.Serving == nil || res.Campaign.Emitted == 0 {
		return fmt.Errorf("job returned no campaign")
	}
	for _, v := range res.Campaign.Variants {
		if v.Error != "" {
			return fmt.Errorf("variant %s: %s", v.Name, v.Error)
		}
		if v.ValuePerElement == 0 {
			return fmt.Errorf("variant %s: truncated measurement", v.Name)
		}
	}
	if j.Orig < 0 {
		if res.Serving.Launches == 0 {
			return fmt.Errorf("cold job launched nothing")
		}
		return nil
	}
	if res.Serving.Launches != 0 {
		return fmt.Errorf("warm job launched %d variants", res.Serving.Launches)
	}
	if !bytes.Equal(payload, payloads[j.Orig]) {
		return fmt.Errorf("warm campaign payload differs from its cold original")
	}
	return nil
}

// replayBlock replays the campaigns of a block layer by layer, the way the
// daemon runs them: serveSlots lanes taking jobs in order, each job on one
// worker, warm jobs after their originals, all on one shared cache. It
// returns the critical path (the busiest lane).
func (e *env) replayBlock(ctx context.Context, specs map[string][]byte, block []serveJob, cache *campaign.Cache, into *lane) (time.Duration, error) {
	done := make([]chan struct{}, len(block))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		mu       sync.Mutex
		firstErr error
	)
	critical := runLanes(into, serveSlots, len(block), func(l *lane, i int) {
		defer close(done[i])
		j := block[i]
		if j.Orig >= 0 {
			<-done[j.Orig]
		}
		launch := serveBase()
		launch.MachineName = j.Req.Machine
		launch.ArrayBytes = int64(j.Req.ArrayBytes)
		launch.OuterReps = j.Req.OuterReps
		launch.InnerReps = j.Req.InnerReps
		in := campaignInput{Spec: j.Spec, Launch: launch}
		if _, _, err := replayCampaign(ctx, in, specs[j.Spec], cache, 1, l, e); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("replay job %d (%s): %w", i, j.Spec, err)
			}
			mu.Unlock()
		}
	})
	return critical, firstErr
}
