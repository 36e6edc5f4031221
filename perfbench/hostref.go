package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refNominal is the calibration loop's median time on the reference host
// (AMD EPYC, 2 vCPU, go1.24). Scaled rates are multiplied by the run's
// median loop time over this value, so they read as the reference host's.
const refNominal = 0.016

// hostRef times a fixed calibration loop between passes. The shared 2-vCPU
// reference host drifts: over minutes, the passes and the loop slow down
// or speed up together by a third to a half, so runs made at different
// times land on different host speeds. Between two sets of ten runs of the
// same code, the raw medians moved by 26% (sweep-cold), 49% (serve-mixed)
// and 31% (dram-adaptive) while the loop moved by 19 to 42%. A rate times
// the loop's time stays put, for every workload alike. The loop is the
// benchmark's own code, so no change to the program moves it, and it runs
// in a child process, so it neither sees nor leaves garbage in the heap of
// the program under measurement.
type hostRef struct {
	samples []float64 // seconds per loop
}

// sample times n loops, each in a fresh child process, and waits for each
// to exit.
func (h *hostRef) sample(n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		out, err := exec.Command(self, "-calibrate").Output()
		if err != nil {
			return fmt.Errorf("calibration loop: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("calibration loop: %w", err)
		}
		h.samples = append(h.samples, v)
	}
	return nil
}

// factor is the run's median loop time over the reference host's.
func (h *hostRef) factor() float64 {
	return median(h.samples) / refNominal
}

// samplesFor is how many loops to time after a pass that ran for d: about
// one per half second of pass, so long passes get as many as short ones,
// but at most maxSamplesPerPass, which keeps the loop a small part of a
// run of long passes.
func samplesFor(d time.Duration) int {
	return min(1+int(d/(500*time.Millisecond)), maxSamplesPerPass)
}

const maxSamplesPerPass = 5

// calibrate times one calibration loop and prints the time in seconds:
// the child-process side of hostRef.sample. The time is the wall clock of
// one loop per CPU run side by side, because the measured passes keep
// every CPU busy.
func calibrate(w io.Writer) error {
	t := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibrationLoop()
		}()
	}
	wg.Wait()
	_, err := fmt.Fprintln(w, time.Since(t).Seconds())
	return err
}

// calibrationLoop does what the passes spend host time on, in miniature:
// allocating and touching fresh memory, hashing, sorting and map updates.
func calibrationLoop() {
	var last []byte
	for i := 0; i < 32; i++ {
		b := make([]byte, 1<<20)
		for j := 0; j < len(b); j += 4096 {
			b[j] = byte(i + j)
		}
		last = b
	}
	sum := sha256.Sum256(last)
	r := rand.New(rand.NewSource(int64(sum[0])))
	ints := make([]int, 100_000)
	m := make(map[int]int, len(ints))
	for i := range ints {
		ints[i] = r.Int()
		m[ints[i]] = i
	}
	sort.Ints(ints)
}
