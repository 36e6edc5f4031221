package sim

import (
	"reflect"
	"testing"

	"microtools/internal/faults"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// withoutScratch copies m with the fields Reset deliberately keeps —
// pooled cores and per-call scratch, all reinitialized before every use —
// zeroed, so DeepEqual compares exactly the state Reset must restore.
func withoutScratch(m *Machine) Machine {
	c := *m
	c.pool, c.seen = nil, nil
	c.runIRQ, c.runCores, c.runDone, c.runActive, c.runPins = nil, nil, nil, nil, nil
	return c
}

// TestMachineResetEqualsNew: a machine used at another frequency, with
// noise, a trace span, a fault injector and telemetry armed, is deeply
// equal to a fresh one after Reset (pooled cores and scratch aside), and
// replays a run with the fresh machine's exact result.
func TestMachineResetEqualsNew(t *testing.T) {
	for _, name := range []string{"nehalem-dual/8", "nehalem-quad/8", "sandybridge/8"} {
		t.Run(name, func(t *testing.T) {
			fresh := testMachine(t, name)
			m := testMachine(t, name)
			reg := telemetry.NewRegistry()
			met := telemetry.NewMetrics(reg)
			m.SetMetrics(met)
			m.SetTraceSpan(obs.New().Start("launch"))
			m.SetFaults(faults.New(1), "k")
			if err := m.SetCoreFrequency(m.Desc.CoreGHz / 2); err != nil {
				t.Fatal(err)
			}
			if err := m.SetNoise(DefaultNoise(3)); err != nil {
				t.Fatal(err)
			}
			j := job(t, 0, 4, 16*4000, 0x100000)
			if _, err := m.Run([]Job{j, job(t, 1, 2, 16*2000, 0x900000)}); err != nil {
				t.Fatal(err)
			}
			m.Reset()
			if got := reg.Snapshot().Counters[telemetry.MetricSimInstsRetired]; got == 0 {
				t.Error("Reset dropped the instructions retired under armed telemetry")
			}
			if !reflect.DeepEqual(withoutScratch(m), withoutScratch(fresh)) {
				t.Fatal("Reset left the machine different from New")
			}
			want, err := fresh.RunOne(j)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.RunOne(j)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("reset machine ran %+v, fresh machine %+v", got, want)
			}
		})
	}
}
