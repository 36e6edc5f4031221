package main

import (
	"fmt"
	"math/rand"

	api "microtools/api/v1"
	"microtools/internal/launcher"
	"microtools/internal/machine"
)

// Workload names, as BENCHMARK.json lists them.
const (
	sweepCold    = "sweep-cold"
	dramAdaptive = "dram-adaptive"
	serveMixed   = "serve-mixed"
)

// scale holds the workload dimensions the smoke tests shrink; the benchmark
// itself always runs fullScale.
type scale struct {
	SweepSpec     string
	SweepMachines []string
	DRAMSpecs     []string
	DRAMMachine   string
	ServeSpecs    []string
	ServeMachines []string
	// ServeColdPerSpec is how many cold jobs per spec one serve block
	// holds; each is repeated once warm, so a block has
	// 2 × ServeColdPerSpec × len(ServeSpecs) jobs.
	ServeColdPerSpec int
}

// fullScale is the benchmark as BENCHMARK.json runs it.
var fullScale = scale{
	SweepSpec:        "specs/loadstore_movaps.xml",
	SweepMachines:    []string{"nehalem-dual/8", "nehalem-quad/8", "sandybridge/8"},
	DRAMSpecs:        []string{"specs/arith_hiding.xml", "specs/stride_study.xml"},
	DRAMMachine:      "nehalem-quad/8",
	ServeSpecs:       []string{"specs/loadstore_movaps.xml", "specs/loadstore_movess_abstract.xml", "specs/arith_hiding.xml", "specs/stride_study.xml", "specs/stencil3.xml"},
	ServeMachines:    []string{"nehalem-dual/8", "sandybridge/8"},
	ServeColdPerSpec: 2,
}

// campaignInput is one campaign.Run call of a campaign workload.
type campaignInput struct {
	Spec   string
	Launch launcher.Options
	// Adaptive arms the adaptive repetition plan (nil = fixed budget).
	Adaptive *launcher.Plan
}

// sweepSizes are the L1-resident array sizes of sweep-cold: a quarter to
// half of the /8 machines' 4 KiB L1. Simulated work grows with the size
// while the per-variant fixed costs do not, so every cycle runs all of
// them, rotated by the run seed, and runs with different seeds do the same
// work.
var sweepSizes = []int64{1024, 1344, 1664, 1984}

// sweepInputs generates pass number pass of sweep-cold: the 510-variant
// Fig. 6 family on every sweep machine, 1×1 repetitions, noise off, with
// one L1-resident array at a seed-picked 16-byte-aligned offset.
func sweepInputs(seed int64, pass int, sc scale) []campaignInput {
	r := rand.New(rand.NewSource(seed))
	align := int64(16 * r.Intn(128))
	size := sweepSizes[rotate(seed, pass, len(sweepSizes))]
	var out []campaignInput
	for _, m := range sc.SweepMachines {
		l := launcher.DefaultOptions()
		l.MachineName = m
		l.ArrayBytes = size
		l.Alignments = []int64{align}
		l.InnerReps = 1
		l.OuterReps = 1
		out = append(out, campaignInput{Spec: sc.SweepSpec, Launch: l})
	}
	return out
}

// rotate is slot (seed + pass) mod n, for any seed.
func rotate(seed int64, pass, n int) int {
	return int(((seed+int64(pass))%int64(n) + int64(n)) % int64(n))
}

// dramNoiseSeeds is how many noise seeds one dram-adaptive cycle covers.
// Noise decides how many variants the adaptive plan tops up, and with 18
// variants per pass that moves a pass's work by a quarter from one noise
// seed to the next. Every cycle therefore runs the same noise seeds,
// rotated by the run seed, so runs with different seeds do the same work
// and their throughputs compare.
const dramNoiseSeeds = 3

// dramInputs generates pass number pass of dram-adaptive: every DRAM spec
// on the DRAM machine with arrays at 4× its L3 (so every pass streams from
// DRAM) at a seed-picked cache-line offset, noise on, and the adaptive plan
// over 8 outer repetitions.
func dramInputs(seed int64, pass int, sc scale) ([]campaignInput, error) {
	desc, err := machine.ByName(sc.DRAMMachine)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	align := int64(64 * r.Intn(64))
	noise := int64(1 + rotate(seed, pass, dramNoiseSeeds))
	var out []campaignInput
	for _, spec := range sc.DRAMSpecs {
		l := launcher.DefaultOptions()
		l.MachineName = sc.DRAMMachine
		l.ArrayBytes = 4 * desc.Hierarchy.L3.Size
		l.Alignments = []int64{align}
		l.InnerReps = 1
		l.OuterReps = 8
		l.DisableInterrupts = false
		l.NoiseSeed = noise
		out = append(out, campaignInput{Spec: spec, Launch: l, Adaptive: &launcher.Plan{}})
	}
	return out, nil
}

// cycleOf is how many passes make one full round of a workload's inputs.
func cycleOf(workload string) int {
	switch workload {
	case sweepCold:
		return len(sweepSizes)
	case dramAdaptive:
		return dramNoiseSeeds
	}
	return serveBlocksPerCycle
}

// serveBlocksPerCycle is how many serve-mixed blocks make one cycle. A
// block's work varies with its random array sizes; four blocks (80 jobs)
// even that out.
const serveBlocksPerCycle = 4

// serveJob is one request of the serve-mixed job sequence.
type serveJob struct {
	Spec string // spec path; the request carries its text
	Req  api.JobRequest
	// Orig is the block index of the cold job this one repeats under
	// another tenant (-1 for a cold job).
	Orig int
}

// serveTenants are the tenants jobs are submitted under.
var serveTenants = []string{"t0", "t1", "t2"}

// serveSizes is the L1/L2 array-size menu of serve-mixed: 1 KiB to just
// under the /8 machines' 32 KiB L2, in 16-byte steps.
const (
	serveMinSize  = 1 << 10
	serveSizeStep = 16
	serveSizes    = 1984
)

// serveSeq generates the serve-mixed job sequence block by block. Every
// block holds ServeColdPerSpec cold jobs per spec in seeded order, each at
// a machine and array size no earlier cold job used, so it must launch;
// then one warm repeat of every cold job, in the same order, under another
// tenant, so it is served from the cache with zero launches. Blocks
// therefore all do the same kind of work, and a warm job never depends on
// a job outside its block.
type serveSeq struct {
	sc   scale
	r    *rand.Rand
	used map[string]bool
}

func newServeSeq(seed int64, sc scale) *serveSeq {
	return &serveSeq{sc: sc, r: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
}

// next returns the next block of the sequence. Spec text is filled in by
// the caller from the specs read at set-up.
func (s *serveSeq) next() ([]serveJob, error) {
	var cold []serveJob
	for _, spec := range s.sc.ServeSpecs {
		for i := 0; i < s.sc.ServeColdPerSpec; i++ {
			j, err := s.coldJob(spec, i)
			if err != nil {
				return nil, err
			}
			cold = append(cold, j)
		}
	}
	s.r.Shuffle(len(cold), func(a, b int) { cold[a], cold[b] = cold[b], cold[a] })
	block := cold
	for i, c := range cold {
		w := c
		w.Orig = i
		w.Req.Tenant = serveTenants[(indexOf(c.Req.Tenant)+1+s.r.Intn(len(serveTenants)-1))%len(serveTenants)]
		block = append(block, w)
	}
	return block, nil
}

// coldJob draws the stratum-th cold job of a spec in a block. The strata
// split the size menu into ServeColdPerSpec equal bands and take the
// machines in turn, so every block asks for the same spread of work.
func (s *serveSeq) coldJob(spec string, stratum int) (serveJob, error) {
	band := serveSizes / s.sc.ServeColdPerSpec
	m := s.sc.ServeMachines[stratum%len(s.sc.ServeMachines)]
	for tries := 0; tries < 4*band; tries++ {
		size := serveMinSize + serveSizeStep*(stratum*band+s.r.Intn(band))
		k := fmt.Sprintf("%s|%s|%d", spec, m, size)
		if s.used[k] {
			continue
		}
		s.used[k] = true
		return serveJob{Spec: spec, Orig: -1, Req: api.JobRequest{
			SchemaVersion: api.SchemaVersion,
			Tenant:        serveTenants[s.r.Intn(len(serveTenants))],
			Machine:       m,
			ArrayBytes:    size,
			OuterReps:     1,
			InnerReps:     1,
			Workers:       1,
			CheckBounds:   true,
		}}, nil
	}
	return serveJob{}, fmt.Errorf("serve-mixed: no unused array size left for %s on %s", spec, m)
}

func indexOf(tenant string) int {
	for i, t := range serveTenants {
		if t == tenant {
			return i
		}
	}
	return 0
}
