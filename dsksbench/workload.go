package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dsks"
	"dsks/internal/obj"
)

// workload is one named traffic mix together with the deployment it runs
// against. Every workload uses the SIF index and no modeled I/O latency:
// disk reads are counted, never slept.
type workload struct {
	name string

	preset string
	scale  int
	shards int // 1 = a single node served through server.New

	buffer    float64 // buffer-pool fraction (0 = the library default, 2%)
	landmarks int     // > 0 builds the ALT oracle with this many landmarks
	cacheSize int     // server.Config.CacheSize: 0 = default, < 0 = disabled
	wal       bool    // per-shard write-ahead log with group commit

	mix  []weighted // the op deck: read kinds, plus insert/remove when writes run beside reads
	pool int        // distinct read queries, split over the read kinds by weight
	zipf float64    // popularity exponent within each kind's pool; 0 = uniform

	// openRate is the offered rate (ops/s) of the open-loop phase, fixed
	// below saturation so latency is measured without a growing backlog.
	// open and closed are the shares of the measured time given to the
	// open and closed loops; under uniform popularity the closed loop
	// sends the pool once instead.
	openRate     float64
	open, closed float64
}

// weighted is one kind of operation and its share of the op deck.
type weighted struct {
	kind   string
	weight int
}

// The read kinds and the two write kinds.
const (
	kSearch      = "search"
	kDiversified = "diversified"
	kKNN         = "knn"
	kRanked      = "ranked"
	kCollective  = "collective"
	kInsert      = "insert"
	kRemove      = "remove"
)

func isWrite(kind string) bool { return kind == kInsert || kind == kRemove }

// workloads are the benchmark's traffic mixes; README.md gives the reason
// each one exists and the layers it is meant to move.
var workloads = []*workload{
	{
		name:   "lookup",
		preset: "NA", scale: 5, shards: 1,
		mix:  []weighted{{kSearch, 4}, {kKNN, 2}, {kRanked, 1}, {kCollective, 1}},
		pool: 16384, zipf: 1.0,
		openRate: 1500, open: 0.7, closed: 0.3,
	},
	{
		name:   "diversify",
		preset: "NA", scale: 5, shards: 1,
		landmarks: 64, cacheSize: -1,
		mix:      []weighted{{kDiversified, 1}},
		pool:     1024,
		openRate: 64, open: 0.8, closed: 0.1,
	},
	{
		name:   "readwrite",
		preset: "NA", scale: 20, shards: 4,
		buffer: 1.0, wal: true,
		mix: []weighted{{kSearch, 4}, {kDiversified, 3}, {kKNN, 2}, {kRanked, 1},
			{kInsert, 3}, {kRemove, 3}},
		pool:     3000,
		openRate: 300, open: 0.8, closed: 0.2,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// query is one distinct read of the pool: its kind, the workload query
// behind it, and the URL the benchmark sends for it.
type query struct {
	kind string
	q    dsks.WorkloadQuery
	url  string
}

// op is one generated operation: a read of pool entry `entry`, or a
// write. Inserts place a new object at write position `pos`.
type op struct {
	kind  string
	entry int
	pos   int
}

// generator turns (seed, op index) into an operation. It is stateless, so
// any client can draw op i, and the same seed always yields the same
// sequence. Kinds come from shuffled decks holding exactly the mix
// weights; reads then draw a pool entry of their kind by popularity.
type generator struct {
	seed     uint64
	universe uint64 // from the dataset seed: which pool entry has which popularity rank
	deck     []string
	weight   map[string]int       // kind -> slots per deck
	pools    map[string][]int     // kind -> pool entries of that kind
	cdf      map[string][]float64 // kind -> popularity CDF over its entries (nil = uniform)
	queries  []query              // the distinct read pool
	writes   []dsks.WorkloadQuery // write positions
}

// newGenerator builds the distinct read pool and the write positions from
// the dataset's objects (positions on real edges, keywords drawn by term
// frequency, the dataset-default δmax) and the popularity tables. Both
// are drawn with the dataset seed, so one dataset always has one query
// universe with fixed popularity ranks. The workload seed decides the op
// order, the order the pool is walked in and the popularity draws. A
// second universe comes with a second dataset seed.
func newGenerator(wl *workload, ds *dsks.Dataset, seed, dataSeed int64) (*generator, error) {
	g := &generator{
		seed:     splitmix64(uint64(seed) ^ 0x6a09e667f3bcc908),
		universe: splitmix64(uint64(dataSeed) ^ 0xbb67ae8584caa73b),
		pools:    map[string][]int{},
		cdf:      map[string][]float64{},
		weight:   map[string]int{},
	}
	readW := 0
	for _, m := range wl.mix {
		for i := 0; i < m.weight; i++ {
			g.deck = append(g.deck, m.kind)
		}
		g.weight[m.kind] += m.weight
		if !isWrite(m.kind) {
			readW += m.weight
		}
	}
	if readW > 0 {
		ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
			NumQueries: wl.pool, Keywords: 2, Seed: dataSeed,
		})
		if err != nil {
			return nil, err
		}
		next := 0
		for _, m := range wl.mix {
			if isWrite(m.kind) {
				continue
			}
			n := wl.pool * m.weight / readW
			for i := 0; i < n; i++ {
				q := ws[next]
				q.Terms = obj.NormalizeTerms(append([]dsks.TermID(nil), q.Terms...))
				g.pools[m.kind] = append(g.pools[m.kind], len(g.queries))
				g.queries = append(g.queries, query{kind: m.kind, q: q, url: readURL(m.kind, q)})
				next++
			}
			if wl.zipf > 0 {
				g.cdf[m.kind] = zipfCDF(n, wl.zipf)
			}
		}
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 4096, Keywords: 2, Seed: dataSeed ^ 0x5bd1e995,
	})
	if err != nil {
		return nil, err
	}
	g.writes = ws
	return g, nil
}

// op draws operation i. A read under Zipf popularity draws a rank and
// maps it to a pool entry through a permutation fixed by the dataset
// seed, so one universe always has the same hot queries and the workload
// seed decides the draws. Under uniform popularity, and for write
// positions, the op's index among the ops of its kind walks the pool, so
// nothing repeats until everything has been sent once.
func (g *generator) op(i int64) op {
	n := int64(len(g.deck))
	perm := g.deckPerm(i / n)
	kind := g.deck[perm[i%n]]
	j := uint64(i/n) * uint64(g.weight[kind])
	for _, p := range perm[:i%n] {
		if g.deck[p] == kind {
			j++
		}
	}
	if isWrite(kind) {
		return op{kind: kind, pos: int(permute(j, uint64(len(g.writes)), g.seed))}
	}
	entries := g.pools[kind]
	m := uint64(len(entries))
	if cdf := g.cdf[kind]; cdf != nil {
		h := splitmix64(g.seed ^ splitmix64(uint64(i)+0x9e3779b97f4a7c15))
		r := uint64(sort.SearchFloat64s(cdf, float64(h>>11)/(1<<53)))
		return op{kind: kind, entry: entries[permute(min(r, m-1), m, g.universe)]}
	}
	return op{kind: kind, entry: entries[permute(j, m, g.seed)]}
}

// permute is a seeded permutation j -> (a·j + b) mod m of [0, m).
func permute(j, m, seed uint64) uint64 {
	return (j%m*coprime(seed|1, m) + seed) % m
}

// pass is the number of operations that send every pool query once.
func (g *generator) pass() int64 {
	reads := 0
	for _, k := range g.deck {
		if !isWrite(k) {
			reads++
		}
	}
	return int64(len(g.queries) * len(g.deck) / reads)
}

// coprime returns the first value from a up that shares no factor with m,
// so j -> j*a mod m permutes [0, m).
func coprime(a, m uint64) uint64 {
	a %= m
	for gcd(a, m) != 1 {
		a++
	}
	return a
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// deckPerm is the slot order of deck d: a seeded Fisher-Yates shuffle.
func (g *generator) deckPerm(d int64) []int {
	perm := make([]int, len(g.deck))
	for i := range perm {
		perm[i] = i
	}
	h := splitmix64(g.seed ^ uint64(d)*0xbf58476d1ce4e5b9)
	for i := len(perm) - 1; i > 0; i-- {
		h = splitmix64(h)
		k := int(h % uint64(i+1))
		perm[i], perm[k] = perm[k], perm[i]
	}
	return perm
}

// zipfCDF is the cumulative popularity of ranks 1..n under P(r) ∝ r^-s.
// Rank r is pool entry r-1; the pool order is already random.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// The fixed parameters of each read kind, as dsks-serve's load driver
// sends them: k = 5 everywhere, λ = 0.8, α = 0.5, and kNN bounded by the
// query's δmax.
const (
	paramK      = 5
	paramLambda = 0.8
	paramAlpha  = 0.5
)

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func termList(ts []dsks.TermID) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = strconv.Itoa(int(t))
	}
	return strings.Join(parts, ",")
}

// readURL is the GET request for one read.
func readURL(kind string, q dsks.WorkloadQuery) string {
	at := fmt.Sprintf("edge=%d&offset=%s&terms=%s", q.Pos.Edge, ftoa(q.Pos.Offset), termList(q.Terms))
	d := ftoa(q.DeltaMax)
	switch kind {
	case kDiversified:
		return fmt.Sprintf("/v1/diversified?%s&deltaMax=%s&k=%d&lambda=%s", at, d, paramK, ftoa(paramLambda))
	case kKNN:
		return fmt.Sprintf("/v1/knn?%s&k=%d&maxDist=%s", at, paramK, d)
	case kRanked:
		return fmt.Sprintf("/v1/ranked?%s&deltaMax=%s&k=%d&alpha=%s", at, d, paramK, ftoa(paramAlpha))
	default: // search, collective
		return fmt.Sprintf("/v1/%s?%s&deltaMax=%s", kind, at, d)
	}
}
