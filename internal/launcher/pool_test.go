package launcher_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/sim"
	"microtools/internal/telemetry"
)

// poolMachines are the /8-scaled models the campaigns and the service run.
var poolMachines = []string{"nehalem-dual/8", "nehalem-quad/8", "sandybridge/8"}

// specKernels lowers up to perSpec evenly spaced variants of every shipped
// spec.
func specKernels(t *testing.T, perSpec int) []*isa.Program {
	t.Helper()
	paths, err := filepath.Glob("../../specs/*.xml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	var out []*isa.Program
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := core.Generate(context.Background(), f, core.GenerateOptions{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		step := (len(progs) + perSpec - 1) / perSpec
		for i := 0; i < len(progs); i += step {
			k, err := progs[i].Lowered()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, k)
		}
	}
	return out
}

// poolCase is one launch of the interleaved schedule.
type poolCase struct {
	name   string
	kernel *isa.Program
	opts   launcher.Options
	faulty bool // fails at the first repetition, after warm-up and calibration
}

// poolSchedule builds the launch sequence: every kernel on every machine,
// cycling through conditions chosen so consecutive launches on one model
// differ in noise (interrupts toggled on and off), core frequency (set,
// then unset), residency (L1 and DRAM) and outcome (a fault-injected
// launch followed by a clean one).
func poolSchedule(kernels []*isa.Program, met *telemetry.Metrics) []poolCase {
	var cases []poolCase
	for mi, mname := range poolMachines {
		for ki, k := range kernels {
			i := len(cases)
			o := launcher.DefaultOptions()
			o.MachineName = mname
			o.ArrayBytes = 2 << 10 // L1-resident on every /8 model
			o.InnerReps = 1
			o.OuterReps = 2
			o.Metrics = met
			c := poolCase{kernel: k}
			switch (ki + mi) % 6 {
			case 0:
				c.name = "quiet"
			case 1:
				c.name = "noise"
				o.DisableInterrupts = false
				o.NoiseSeed = int64(i)
			case 2:
				c.name = "quiet-freq"
				o.CoreFrequencyGHz = 1.6
			case 3:
				c.name = "dram-noise"
				o.ArrayBytes = 4 << 20 // beyond every /8 model's L3
				o.MaxInstructions = 20_000
				o.DisableInterrupts = false
				o.NoiseSeed = int64(i)
			case 4:
				c.name = "fault"
				c.faulty = true
				o.CoreFrequencyGHz = 2.4
				o.DisableInterrupts = false
			case 5:
				c.name = "after-fault"
			}
			c.name = fmt.Sprintf("%s/%s/%s", mname, k.Name, c.name)
			c.opts = o
			cases = append(cases, c)
		}
	}
	return cases
}

// freshMeasure is the reference: the protocol on a machine built for this
// launch alone, configured exactly as Launch documents.
func freshMeasure(t *testing.T, c poolCase) *launcher.Measurement {
	t.Helper()
	desc, err := machine.ByName(c.opts.MachineName)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.New(desc)
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.CoreFrequencyGHz > 0 {
		if err := mach.SetCoreFrequency(c.opts.CoreFrequencyGHz); err != nil {
			t.Fatal(err)
		}
	}
	if !c.opts.DisableInterrupts {
		if err := mach.SetNoise(sim.DefaultNoise(c.opts.NoiseSeed)); err != nil {
			t.Fatal(err)
		}
	}
	opts := c.opts
	opts.Metrics = nil
	m, err := launcher.LaunchOn(context.Background(), mach, c.kernel, opts)
	if err != nil {
		t.Fatalf("%s: fresh launch: %v", c.name, err)
	}
	return m
}

// TestPooledEqualsFresh: a launch on a pooled machine — primed by
// unrelated launches, then reused across noise, frequency, residency and
// fault changes, by 1, 2 and 4 concurrent workers — measures bit for bit
// what the same launch measures on a freshly built machine.
func TestPooledEqualsFresh(t *testing.T) {
	kernels := specKernels(t, 6)
	met := telemetry.NewMetrics(telemetry.NewRegistry())
	cases := poolSchedule(kernels, met)
	want := make([]*launcher.Measurement, len(cases))
	for i, c := range cases {
		if !c.faulty {
			want[i] = freshMeasure(t, c)
		}
	}

	// Prime every model's pool with launches the schedule does not
	// contain: a different kernel, size, frequency and noise seed.
	prime := launcher.DefaultOptions()
	prime.ArrayBytes = 3 << 20
	prime.MaxInstructions = 50_000
	prime.CoreFrequencyGHz = 1.2
	prime.DisableInterrupts = false
	prime.NoiseSeed = 99
	prime.Metrics = met
	launches := 0
	for _, mname := range poolMachines {
		prime.MachineName = mname
		if _, err := launcher.Launch(context.Background(), kernels[len(kernels)-1], prime); err != nil {
			t.Fatal(err)
		}
		launches++
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := make([]*launcher.Measurement, len(cases))
			errs := make([]error, len(cases))
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						c := cases[i]
						if c.faulty {
							// A fresh injector per run: a transient site
							// heals after its first failure.
							c.opts.Faults = faults.New(0).SetRate(faults.PointLauncherRep, 1)
						}
						got[i], errs[i] = launcher.Launch(context.Background(), c.kernel, c.opts)
					}
				}()
			}
			for i := range cases {
				next <- i
			}
			close(next)
			wg.Wait()
			launches += len(cases)
			for i, c := range cases {
				if c.faulty {
					if !errors.Is(errs[i], faults.ErrInjected) {
						t.Errorf("%s: err = %v, want an injected fault", c.name, errs[i])
					}
					continue
				}
				if errs[i] != nil {
					t.Errorf("%s: %v", c.name, errs[i])
					continue
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: pooled launch measured\n%+v\nfresh machine measured\n%+v", c.name, got[i], want[i])
				}
			}
		})
	}

	built, reused := met.MachinesBuilt.Value(), met.MachinesReused.Value()
	if built+reused != int64(launches) {
		t.Errorf("machines built %d + reused %d != %d launches", built, reused, launches)
	}
	if built < int64(len(poolMachines)) || reused == 0 {
		t.Errorf("machines built %d, reused %d over %d launches: the pool is not reusing machines", built, reused, launches)
	}
}

// TestUnknownMachineNamesDoNotGrowThePool: names that do not resolve fail
// with the unknown-machine error before the pool map is touched, and
// aliases of a known model share its pool, so no caller-supplied name can
// grow the map.
func TestUnknownMachineNamesDoNotGrowThePool(t *testing.T) {
	p, err := asmKernel()
	if err != nil {
		t.Fatal(err)
	}
	opts := launcher.DefaultOptions()
	opts.ArrayBytes = 2 << 10
	opts.OuterReps = 2
	opts.InnerReps = 1
	opts.MachineName = "nehalem-dual/8"
	if _, err := launcher.Launch(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	before := launcher.MachinePoolNames()
	for i := 0; i < 1000; i++ {
		opts.MachineName = fmt.Sprintf("bogus-%d/8", i)
		_, err := launcher.Launch(context.Background(), p, opts)
		if err == nil || !strings.Contains(err.Error(), "unknown machine") {
			t.Fatalf("%s: err = %v, want the unknown-machine error", opts.MachineName, err)
		}
	}
	for _, alias := range []string{"nehalem-dual/08", "nehalem-dual/+8", "nehalem-dual/0008"} {
		opts.MachineName = alias
		if _, err := launcher.Launch(context.Background(), p, opts); err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
	}
	if after := launcher.MachinePoolNames(); !reflect.DeepEqual(after, before) {
		t.Fatalf("pool map grew from %v to %v", before, after)
	}
}

func asmKernel() (*isa.Program, error) {
	return core.LoadKernel(".L0:\nmovaps (%rsi), %xmm0\nadd $16, %rsi\nadd $1, %eax\nsub $4, %rdi\njge .L0\nret\n", "")
}
