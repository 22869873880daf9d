package main

import (
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/simfarm"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Every input the program receives is drawn here from the run's seed.
// Each generator uses its own PCG stream, so adding draws to one
// workload never shifts the inputs of another.
const (
	streamGeom = iota + 1
	streamOrder
	streamSoC
	streamServe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// The engine-hot geometry draw. Host cost per instruction at Level3
// depends almost only on associativity and line size (the probe's shape
// and how often it runs), so every seed uses the same four (ways, line)
// shapes and draws the capacity and the miss penalty of each from
// seeded permutations of fixed lists. Geometries differ between seeds
// while the work stays comparable. Every draw is a power-of-two
// geometry of 1..8 ways, which the Level3 probe generator supports.
var (
	geomShapes  = [][2]int{{1, 8}, {2, 32}, {4, 16}, {8, 16}} // (ways, line bytes)
	geomBytes   = []int{512, 1024, 1024, 2048}
	geomPenalty = []int{6, 8, 10, 12}
)

// drawGeometries returns the seed's engine-hot I-cache geometries.
func drawGeometries(seed uint64) []march.CacheGeom {
	r := newRand(seed, streamGeom)
	size, pen := r.Perm(len(geomShapes)), r.Perm(len(geomShapes))
	gs := make([]march.CacheGeom, len(geomShapes))
	for i, sh := range geomShapes {
		w, l := sh[0], sh[1]
		gs[i] = march.CacheGeom{Sets: geomBytes[size[i]] / (w * l), Ways: w, LineBytes: l, MissPenalty: geomPenalty[pen[i]]}
	}
	return gs
}

// descFor returns the default TC32 description with geometry g.
func descFor(g march.CacheGeom) *march.Desc {
	d := march.Default()
	d.ICache = g
	return d
}

// orderStream yields seeded run orders: of each engine-hot round, each
// soc-mix pass and the two schedulers of each soc-mix batch.
type orderStream struct{ r *rand.Rand }

func newOrderStream(seed uint64) orderStream { return orderStream{newRand(seed, streamOrder)} }

// next returns a permutation of [0, n).
func (o orderStream) next(n int) []int { return o.r.Perm(n) }

// socDraw is one SoC configuration of soc-mix.
type socDraw struct {
	Workload string
	Cores    int
	Quantum  int64
	Arb      soc.Arbitration
	Level    core.Level
}

var (
	socCores  = []int{2, 4, 8}
	socQuanta = []int64{16, 64, 256}
	socLevels = []core.Level{core.Level1, core.Level2, core.Level3}
)

// socDraws returns the SoC set of a seed: every cell of
// workload.MCNames() x cores {2,4,8} x quantum {16,64,256} x level 1-3 x
// arbitration {rr, fixed}, in seeded order. The dimensions are crossed
// fully because the cost of a cell depends strongly on each of them
// (arbitration decides how long spin loops run); a seeded sample of
// cells would make the amount of work depend on the seed.
func socDraws(seed uint64) []socDraw {
	var ds []socDraw
	for _, name := range workload.MCNames() {
		for _, n := range socCores {
			if _, ok := workload.MCKnown(name, n); !ok {
				continue
			}
			for _, q := range socQuanta {
				for _, l := range socLevels {
					for _, arb := range []soc.Arbitration{soc.RoundRobin, soc.FixedPriority} {
						ds = append(ds, socDraw{Workload: name, Cores: n, Quantum: q, Arb: arb, Level: l})
					}
				}
			}
		}
	}
	r := newRand(seed, streamSoC)
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// jobKey names one farm job the way a client submits it.
type jobKey struct {
	Workload string `json:"workload"`
	Level    int    `json:"level"`
	Config   string `json:"config"`
}

// jobUniverse is every (config, workload, level) job over the server's
// named march configs: 4 x 7 x 4 = 112 jobs.
func jobUniverse() []jobKey {
	var u []jobKey
	for _, c := range simfarm.DefaultMarchConfigs() {
		for _, w := range workload.All() {
			for l := core.Level0; l <= core.Level3; l++ {
				u = append(u, jobKey{Workload: w.Name, Level: int(l), Config: c.Name})
			}
		}
	}
	return u
}

// batchJobs is the job count of one farm batch.
const batchJobs = 16

// freshEvery: one batch in each group of this many opens a fresh tenant.
const freshEvery = 4

// servePlan generates the farm traffic: a closed-loop sequence of
// 16-job batches. Tenants come in cycles of 7 that together submit the
// 112-job universe once: tenant t of a cycle gets, for each of the 16
// (config, level) cells, workload perm[(t+off[cell]) mod 7], where perm
// is a seeded order of the 7 workloads and off a seeded permutation of
// 0..15. Every tenant so gets one job per cell and
// each workload two or three times. In each group of 4 batches one, at
// a seeded position, opens a fresh tenant; the others revisit a seeded
// choice among the tenants opened so far and resubmit its job list.
type servePlan struct {
	r       *rand.Rand
	cycle   [][]jobKey // job lists of the current cycle's tenants
	tenants [][]jobKey
	batch   int
	freshAt int
}

func newServePlan(seed uint64) *servePlan {
	return &servePlan{r: newRand(seed, streamServe)}
}

// newCycle deals the universe to the next 7 tenants.
func (p *servePlan) newCycle() {
	names := workload.Names()
	perm := p.r.Perm(len(names))
	var cells []jobKey // workload left empty
	for _, c := range simfarm.DefaultMarchConfigs() {
		for l := core.Level0; l <= core.Level3; l++ {
			cells = append(cells, jobKey{Level: int(l), Config: c.Name})
		}
	}
	off := p.r.Perm(len(cells))
	p.cycle = make([][]jobKey, len(names))
	for t := range p.cycle {
		js := make([]jobKey, len(cells))
		for c, cell := range cells {
			cell.Workload = names[perm[(t+off[c])%len(names)]]
			js[c] = cell
		}
		p.r.Shuffle(len(js), func(i, j int) { js[i], js[j] = js[j], js[i] })
		p.cycle[t] = js
	}
}

// next returns the tenant index of the next batch, whether the tenant
// is fresh, and the batch's jobs.
func (p *servePlan) next() (tenant int, fresh bool, jobs []jobKey) {
	if p.batch%freshEvery == 0 {
		p.freshAt = p.r.IntN(freshEvery)
		if p.batch == 0 {
			p.freshAt = 0
		}
	}
	slot := p.batch % freshEvery
	p.batch++
	if slot == p.freshAt {
		k := len(p.tenants)
		if k%len(workload.Names()) == 0 {
			p.newCycle()
		}
		js := p.cycle[k%len(p.cycle)]
		p.tenants = append(p.tenants, js)
		return k, true, js
	}
	k := p.r.IntN(len(p.tenants))
	return k, false, p.tenants[k]
}
