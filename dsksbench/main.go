// Command dsksbench is the repository benchmark: it builds a workload's
// deployment in-process, serves it through the real internal/server
// handler on a loopback port, drives it over HTTP with at most
// GOMAXPROCS clients, checks every answer, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash dsksbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// single-client traced pass and reports the per-layer metrics. The exit
// code is non-zero on any wrong answer. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: lookup, diversify or readwrite")
		seed     = flag.Int64("seed", 1, "workload seed: pool order, popularity, op order and write positions")
		dataSeed = flag.Int64("data-seed", defaultDataSeed, "dataset seed: road network, objects and the distinct query pool")
		seconds  = flag.Int("seconds", 20, "measured seconds per run (set-up, warm-up and checks excluded)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsksbench:", err)
		os.Exit(2)
	}
	debug.SetGCPercent(gcPercent)
	res, err := run(wl, *seed, *dataSeed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsksbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// libAnswer is the library's answer to one pool entry and the work it
// took.
type libAnswer struct {
	answer string
	stats  dsks.SearchStats
}

// answers holds the library's answer per pool entry, by entry index.
type answers []libAnswer

// conns is the client and connection count: one per CPU the Go runtime
// uses, so the load generator never outnumbers the cores it shares with
// the server.
func conns() int { return runtime.GOMAXPROCS(0) }

// setupReps is how many times an end-to-end run sets the workload up;
// setup_s is their median.
const setupReps = 3

// rounds is how many times an end-to-end run cycles through its phases.
const rounds = 4

// gcPercent is the collector's target heap growth for the process, server
// included (GOGC; the Go default is 100). A run forces a collection
// before every measured phase. At 100, five more landed in a 16 s open
// loop on diversify, and the heaviest queries slowed down by whether they
// overlapped one; at 200 half as many start. The garbage the collector
// now lets build up shows in peak_rss_mb.
const gcPercent = 200

func run(wl *workload, seed, dataSeed int64, dur time.Duration, traced bool) (*result, error) {
	work := os.Getenv("CARGO_TARGET_DIR")
	if work == "" {
		work = ".bench_build"
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	printStamp(wl, seed, dataSeed, dur, traced)
	began := time.Now()

	var t *tracer
	var wrap func(http.Handler) http.Handler
	if traced {
		t = &tracer{}
		wrap = t.wrap
	}

	// Set up repeatedly. Every repetition does the whole job (generate,
	// open, serve, answer a first query); all but the last are torn down,
	// so the measured process holds one database, as dsks-serve does. The
	// first database answers the whole distinct pool through the library
	// before it goes: the reference the served answers must match.
	reps := setupReps
	if traced {
		reps = 2
	}
	var setups []float64
	var st *stack
	var gen *generator
	var expected answers
	var setupRSS float64
	rss := startRSS()
	defer rss.stop()
	for i := 0; i < reps; i++ {
		var w func(http.Handler) http.Handler
		if i == reps-1 {
			w = wrap
			rss.take()
		}
		s, err := startStack(wl, dataSeed, tmp, w)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, s.setup.Seconds())
		fmt.Printf("setup %d: generate %.3fs open %.3fs first answer %.3fs\n",
			i+1, s.generate.Seconds(), s.open.Seconds(), s.setup.Seconds())
		if i == 0 {
			if gen, err = newGenerator(wl, s.ds, seed, dataSeed); err == nil && s.db != nil {
				expected, err = poolAnswers(s.db, gen)
			}
			if err != nil {
				s.stop()
				return nil, err
			}
		}
		if i == reps-1 {
			st = s
			setupRSS = rss.take()
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		freeMemory()
	}
	defer st.stop()
	freeMemory()
	d := newDriver(st, gen, expected, conns())
	setupDone := time.Now()

	// Warm-up: the same generated traffic, closed loop, excluded from
	// every metric but checked like the rest. Under uniform popularity it
	// sends the whole pool once, so whatever the measured reads touch
	// (pages, oracle rows) is as warm in the first round as in the last.
	var all []sample
	var warmCount int64
	if wl.zipf == 0 {
		warmCount = gen.pass()
	}
	warm, _ := d.closedLoop(gen.op, &d.warm, conns(), dur/10, warmCount)
	d.verify(warm)
	all = append(all, warm...)

	metrics := map[string]metric{}
	if traced {
		runtime.GC()
		st.setTraceHook(t.hook)
		walBefore, bytesBefore := st.counters(), st.walBytes()
		d.keepBodies = true
		pass := tracedPass(d, t, gen.op, dur)
		st.setTraceHook(nil)
		d.verify(pass)
		all = append(all, pass...)
		layerMetrics(metrics, st, pass, walBefore, bytesBefore)
		metrics["setup.peak_rss_mb"] = metric{setupRSS, "MB"}
	} else {
		// The phases run in short rounds, so a slow spell of the host
		// lands on every metric a little instead of on one metric whole.
		// Each phase starts right after a collection, so it pays for the
		// garbage it makes, not for the garbage of the phase before.
		// Under uniform popularity the closed loop sends the whole pool
		// once over the rounds, so every run's throughput covers the
		// same queries.
		share := func(f float64) time.Duration { return time.Duration(f * float64(dur) / rounds) }
		var count int64
		if wl.zipf == 0 {
			count = gen.pass() / rounds
		}
		// peak_rss_mb is the median over the phases of each phase's peak
		// resident set: the serving process, with what it keeps while it
		// serves (result cache, inserted objects and their versions,
		// write-ahead log buffers). Answers are checked between phases,
		// so the benchmark holds only the responses of the phase running.
		var open, closed []sample
		var elapsed time.Duration
		var peaks []float64
		phase := func(f func() []sample) []sample {
			runtime.GC()
			rss.take()
			out := f()
			peaks = append(peaks, rss.take())
			d.verify(out)
			return out
		}
		for r := 0; r < rounds; r++ {
			o := phase(func() []sample {
				return d.openLoop(gen.op, &d.open, conns(), share(wl.open), wl.openRate)
			})
			c := phase(func() []sample {
				c, e := d.closedLoop(gen.op, &d.closed, conns(), share(wl.closed), count)
				elapsed += e
				return c
			})
			open, closed = append(open, o...), append(closed, c...)
			all = append(append(all, o...), c...)
		}
		endToEnd(metrics, open, closed, elapsed)
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["peak_rss_mb"] = metric{median(peaks), "MB"}
		fmt.Printf("peak RSS: set-up %.0f MB, measured phases %.0f MB\n", setupRSS, peaks)
		reportLateness(open)
	}

	checkStart := time.Now()
	wrong := checkWrites(d)
	wrong += d.wrongAnswers(all)
	for _, v := range d.violations {
		fmt.Println("violation:", v)
	}
	wrong += len(d.violations)
	fmt.Printf("wall: set-up %.1fs, warm-up and measurement %.1fs, checks %.1fs\n",
		setupDone.Sub(began).Seconds(), checkStart.Sub(setupDone).Seconds(), time.Since(checkStart).Seconds())

	res := &result{Correct: wrong == 0, Attempted: len(all), Metrics: metrics}
	for _, s := range all {
		if s.status != http.StatusOK {
			res.Failed++
		}
	}
	res.Failed += wrong
	if res.Attempted > 0 {
		fmt.Printf("failed_frac %.6f (%d of %d attempted; %d wrong answers or violated invariants)\n",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, wrong)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return res, nil
}

// endToEnd computes the gated end-to-end metrics, read latency from the
// open loop, timed from each request's scheduled send, and read
// throughput from the closed loop, and prints the ungated ones (see
// README.md): the read p99 and, where writes run beside the reads, write
// latency from send to durable ack. A write is timed from its send, so
// the loop it was sent in does not change what it measures.
func endToEnd(m map[string]metric, open, closed []sample, elapsed time.Duration) {
	var reads, wr []float64
	for _, s := range open {
		if !isWrite(s.op.kind) {
			reads = append(reads, ms(s.lat))
		}
	}
	ok := 0
	for _, part := range [][]sample{open, closed} {
		for _, s := range part {
			if isWrite(s.op.kind) {
				wr = append(wr, ms(s.rt))
			}
		}
	}
	for _, s := range closed {
		if !isWrite(s.op.kind) && s.status == http.StatusOK {
			ok++
		}
	}
	m["read_p50_ms"] = metric{quantile(reads, 0.5), "ms"}
	m["read_throughput_qps"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
	fmt.Printf("samples: %d open-loop reads, %d closed-loop reads, %d writes\n", len(reads), ok, len(wr))
	fmt.Printf("read_p99_ms %.3f (printed, not gated)\n", quantile(reads, 0.99))
	if len(wr) > 0 {
		fmt.Printf("write_p50_ms %.3f, write_p99_ms %.3f (printed, not gated)\n", quantile(wr, 0.5), quantile(wr, 0.99))
	}
}

// reportLateness prints how far the open-loop sender fell behind its
// schedule; a late sender means the offered rate was not really offered.
func reportLateness(open []sample) {
	var late []float64
	for _, s := range open {
		late = append(late, ms(s.late))
	}
	fmt.Printf("generator lateness: p50 %.3f ms, p99 %.3f ms over %d sends\n",
		quantile(late, 0.5), quantile(late, 0.99), len(late))
}

// answerKey identifies one distinct response to one pool entry: two
// bodies with the same key differ at most in timings and disk reads.
type answerKey struct {
	entry int
	hash  uint64
}

// verify checks every read response of samples whose key has not been
// checked yet: structurally always and, when d.expected is set (one
// node), against the library's answer on the independently opened first
// database. It runs between phases, untimed, and then drops the bodies,
// so the process does not hold every response it was sent.
func (d *driver) verify(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.body == nil {
			continue
		}
		k := answerKey{s.op.entry, s.hash}
		if _, done := d.verified[k]; !done {
			q := d.gen.queries[s.op.entry]
			w, err := decode(s.body)
			if err == nil {
				err = structural(q, w)
			}
			if err == nil && d.expected != nil {
				if got, want := w.answer(), d.expected[s.op.entry].answer; got != want {
					err = fmt.Errorf("differs from the library\n  served  %.300s\n  library %.300s", got, want)
				}
			}
			if err != nil {
				fmt.Printf("wrong answer: %s: %v\n", q.url, err)
			}
			d.verified[k] = err == nil
		}
		if !d.keepBodies {
			s.body = nil
		}
	}
}

// wrongAnswers counts the 200 reads whose response was wrong, or was
// never verified.
func (d *driver) wrongAnswers(all []sample) int {
	wrong := 0
	for _, s := range all {
		if !isWrite(s.op.kind) && s.status == http.StatusOK && !d.verified[answerKey{s.op.entry, s.hash}] {
			wrong++
		}
	}
	return wrong
}

var hashSeed = maphash.MakeSeed()

// answerHash hashes a response body without the lines that may differ
// between two correct answers to the same query (the server writes one
// field per line).
func answerHash(b []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i+1], b[i+1:]
		} else {
			b = nil
		}
		if !bytes.Contains(line, []byte(`"elapsedMicros"`)) && !bytes.Contains(line, []byte(`"diskReads"`)) {
			h.Write(line)
		}
	}
	return h.Sum64()
}

// poolAnswers runs every query of the pool through the library on db,
// with one worker per client.
func poolAnswers(db *dsks.DB, g *generator) (answers, error) {
	v, err := db.View(context.Background())
	if err != nil {
		return nil, err
	}
	defer v.Close()
	out := make(answers, len(g.queries))
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, conns())
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				e := int(next.Add(1) - 1)
				if e >= len(g.queries) {
					return
				}
				q := g.queries[e]
				res, err := dbReader{v}.run(context.Background(), q)
				if err != nil {
					errs[w] = fmt.Errorf("library answer to %s: %w", q.url, err)
					return
				}
				out[e] = libAnswer{libraryAnswer(q.kind, res), res.Stats}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// checkWrites requires every acked, unremoved insert to be findable
// through the server, and every acked remove to be gone.
func checkWrites(d *driver) int {
	wrong := 0
	for id, o := range d.inserted {
		w := d.gen.writes[o.pos]
		url := d.st.base + readURL(kSearch, dsks.WorkloadQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: 1})
		resp, err := d.http.Get(url)
		if err != nil {
			fmt.Println("findability:", err)
			wrong++
			continue
		}
		var body wireResp
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		found := false
		for _, cand := range body.Candidates {
			found = found || dsks.ObjectID(cand.ID) == id
		}
		if err != nil || resp.StatusCode != http.StatusOK || found == d.removed[id] {
			fmt.Printf("findability: object %d (removed %t) found %t, status %d, err %v\n",
				id, d.removed[id], found, resp.StatusCode, err)
			wrong++
		}
	}
	return wrong
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile (0 for no values).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// freeMemory returns a torn-down deployment's memory to the system before
// the next one is built.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
