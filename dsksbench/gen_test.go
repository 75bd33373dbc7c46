package main

import (
	"math"
	"testing"

	"dsks"
)

// testGenerator builds a generator over a small dataset with the lookup
// workload's mix and popularity, and the given pool size.
func testGenerator(t *testing.T, zipf float64, pool int, seed int64) *generator {
	t.Helper()
	ds, err := dsks.GeneratePreset("NA", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl := *workloads[0]
	wl.zipf, wl.pool = zipf, pool
	g, err := newGenerator(&wl, ds, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Every whole deck holds exactly the mix weights, so any run's kind mix
// matches the weights up to one partial deck.
func TestKindsMatchWeights(t *testing.T) {
	g := testGenerator(t, 1, 1024, 7)
	want := map[string]int{}
	for _, m := range workloads[0].mix {
		want[m.kind] = m.weight
	}
	decks := int64(500)
	got := map[string]int{}
	for i := int64(0); i < decks*int64(len(g.deck)); i++ {
		o := g.op(i)
		got[o.kind]++
		if g.queries[o.entry].kind != o.kind {
			t.Fatalf("op %d: kind %s drew a %s pool entry", i, o.kind, g.queries[o.entry].kind)
		}
	}
	for kind, w := range want {
		if got[kind] != w*int(decks) {
			t.Errorf("%s: %d draws, want exactly %d", kind, got[kind], w*int(decks))
		}
	}
}

// Draws reach every entry of the distinct pool, not a prefix of it: the
// defect of dsks-serve's hammer, whose request list holds one query per
// unit of mix weight whatever -distinct says.
func TestDrawsCoverWholePool(t *testing.T) {
	for _, zipf := range []float64{0, 1} {
		g := testGenerator(t, zipf, 1024, 3)
		seen := make([]bool, len(g.queries))
		for i := int64(0); i < 400_000; i++ {
			seen[g.op(i).entry] = true
		}
		missing := 0
		for _, ok := range seen {
			if !ok {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("zipf %v: %d of %d pool entries never drawn", zipf, missing, len(seen))
		}
	}
}

// Under uniform popularity each kind walks a permutation of its pool:
// no query repeats before every query of the kind has been drawn once.
func TestUniformDrawsArePermutation(t *testing.T) {
	g := testGenerator(t, 0, 1024, 4)
	seen := map[int]bool{}
	drawn := map[string]int{}
	for i := int64(0); len(seen) < len(g.queries); i++ {
		o := g.op(i)
		if seen[o.entry] && drawn[o.kind] < len(g.pools[o.kind]) {
			t.Fatalf("op %d repeats a %s query after %d of %d", i, o.kind, drawn[o.kind], len(g.pools[o.kind]))
		}
		seen[o.entry] = true
		drawn[o.kind]++
	}
}

// Within each kind, rank r is drawn with probability ∝ r^-s.
func TestPopularityIsZipf(t *testing.T) {
	const n = 400_000
	g := testGenerator(t, 1, 2048, 5)
	counts := map[int]int{}
	kinds := map[string]int{}
	for i := int64(0); i < n; i++ {
		o := g.op(i)
		counts[o.entry]++
		kinds[o.kind]++
	}
	for kind := range g.pools {
		cdf := g.cdf[kind]
		for r := 0; r < 20; r++ {
			p := cdf[r]
			if r > 0 {
				p -= cdf[r-1]
			}
			exp := p * float64(kinds[kind])
			entries := g.pools[kind]
			got := float64(counts[entries[permute(uint64(r), uint64(len(entries)), g.universe)]])
			if math.Abs(got-exp) > 5*math.Sqrt(exp) {
				t.Errorf("%s rank %d: %v draws, want %.0f", kind, r+1, got, exp)
			}
		}
	}
}

// The same seed replays the same operations; another seed sends the same
// pool in another order.
func TestSeedDeterminesOps(t *testing.T) {
	a, b, c := testGenerator(t, 1, 512, 9), testGenerator(t, 1, 512, 9), testGenerator(t, 1, 512, 10)
	differ := 0
	for i := int64(0); i < 1000; i++ {
		oa, ob, oc := a.op(i), b.op(i), c.op(i)
		if oa != ob || a.queries[oa.entry].url != b.queries[ob.entry].url {
			t.Fatalf("op %d differs under the same seed: %+v vs %+v", i, oa, ob)
		}
		if a.queries[oa.entry].url != c.queries[oc.entry].url {
			differ++
		}
	}
	if differ < 900 {
		t.Errorf("seeds 9 and 10 share %d of 1000 requests", 1000-differ)
	}
}
