package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// drawAll collects every generator's output for a seed.
func drawAll(seed uint64) (geoms any, orders [][]int, socs []socDraw, batches []any) {
	geoms = drawGeometries(seed)
	o := newOrderStream(seed)
	for i := 0; i < 4; i++ {
		orders = append(orders, o.next(28))
	}
	socs = socDraws(seed)
	p := newServePlan(seed)
	for i := 0; i < 60; i++ {
		k, fresh, jobs := p.next()
		batches = append(batches, []any{k, fresh, jobs})
	}
	return
}

func TestGeneratorsRepeatForOneSeedAndDifferAcrossSeeds(t *testing.T) {
	g1, o1, s1, b1 := drawAll(1)
	g1b, o1b, s1b, b1b := drawAll(1)
	g2, o2, s2, b2 := drawAll(2)
	for _, c := range []struct {
		name         string
		same, repeat any
		other        any
	}{
		{"geometries", g1, g1b, g2},
		{"orders", o1, o1b, o2},
		{"soc draws", s1, s1b, s2},
		{"serve batches", b1, b1b, b2},
	} {
		if !reflect.DeepEqual(c.same, c.repeat) {
			t.Errorf("%s differ between two draws of seed 1", c.name)
		}
		if reflect.DeepEqual(c.same, c.other) {
			t.Errorf("%s are identical for seeds 1 and 2", c.name)
		}
	}
}

func TestGeometriesTranslateAtLevel3(t *testing.T) {
	f, err := tc32asm.Assemble(workload.GCD().Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range geomBytes {
		for _, sh := range geomShapes {
			g := march.CacheGeom{Sets: size / (sh[0] * sh[1]), Ways: sh[0], LineBytes: sh[1], MissPenalty: 8}
			if _, err := core.Translate(f, core.Options{Level: core.Level3, Desc: descFor(g)}); err != nil {
				t.Errorf("geometry %+v: %v", g, err)
			}
		}
	}
}

func TestSoCDrawsCoverEveryCellOnce(t *testing.T) {
	ds := socDraws(7)
	cells := map[socDraw]bool{}
	for _, d := range ds {
		cells[d] = true
		if _, ok := workload.MCByName(d.Workload, d.Cores); !ok {
			t.Errorf("draw %+v names an unavailable workload", d)
		}
	}
	want := len(workload.MCNames()) * len(socCores) * len(socQuanta) * len(socLevels) * 2
	if len(ds) != want || len(cells) != want {
		t.Fatalf("%d draws over %d cells, want every one of %d cells once", len(ds), len(cells), want)
	}
}

func TestServePlanShape(t *testing.T) {
	p := newServePlan(3)
	universe := len(jobUniverse())
	seen := map[jobKey]int{}
	tenants := 0
	for b := 0; b < 4*universe/batchJobs*freshEvery; b++ {
		k, fresh, jobs := p.next()
		if len(jobs) != batchJobs {
			t.Fatalf("batch %d has %d jobs", b, len(jobs))
		}
		if b == 0 && !fresh {
			t.Fatal("the first batch must open a tenant")
		}
		if fresh {
			if k != tenants {
				t.Fatalf("fresh tenant %d, want %d", k, tenants)
			}
			tenants++
			for _, j := range jobs {
				seen[j]++
			}
		} else if k >= tenants {
			t.Fatalf("batch %d revisits unopened tenant %d", b, k)
		}
		if (b+1)%freshEvery == 0 && tenants != (b+1)/freshEvery {
			t.Fatalf("after %d batches %d tenants opened, want one per %d batches", b+1, tenants, freshEvery)
		}
	}
	// 28 fresh tenants = 4 passes over the universe: every job 4 times.
	if len(seen) != universe {
		t.Fatalf("fresh tenants covered %d of %d jobs", len(seen), universe)
	}
	for j, n := range seen {
		if n != 4 {
			t.Fatalf("job %+v dealt %d times, want 4", j, n)
		}
	}
}
