package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/server"
	"dsks/internal/shard"
)

// defaultDataSeed seeds the generated dataset and its query universe
// (dsks-serve's default seed). It stays fixed across workload seeds, so
// --seed varies the traffic over one road network and one query pool;
// --data-seed varies both.
const defaultDataSeed = 1

// stack is one running deployment: the dataset, the backend (one
// database or a shard set) and the real server.Server handler behind a
// loopback listener.
type stack struct {
	ds     *dsks.Dataset
	db     *dsks.DB
	set    *shard.Set
	hs     *http.Server
	served chan error
	base   string
	walDir string
	closed bool

	generate, open, setup time.Duration
}

// options are the dsks.Options of every database in the workload.
func (wl *workload) options(dataSeed int64, walDir string) dsks.Options {
	return dsks.Options{
		Index:          dsks.IndexSIF,
		BufferFraction: wl.buffer,
		Oracle:         wl.landmarks > 0,
		Landmarks:      wl.landmarks,
		OracleSeed:     uint64(dataSeed),
		WALDir:         walDir,
	}
}

// startStack generates the dataset, opens the backend, serves it on a
// loopback port and waits until the first query is answered; the span is
// the workload's set-up time. wrap, when non-nil, wraps the server's
// handler (the traced run's timing layer).
func startStack(wl *workload, dataSeed int64, tmp string, wrap func(http.Handler) http.Handler) (*stack, error) {

	st := &stack{}
	start := time.Now()
	ds, err := dsks.GeneratePreset(dsks.Preset(wl.preset), wl.scale, dataSeed)
	if err != nil {
		return nil, err
	}
	st.ds = ds
	st.generate = time.Since(start)

	cfg := server.Config{CacheSize: wl.cacheSize}
	var srv *server.Server
	if wl.shards > 1 {
		if wl.wal {
			if st.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
				return nil, err
			}
		}
		st.set, err = shard.Open(ds.Graph, ds.Objects, ds.VocabSize, wl.shards, shard.Options{
			DB: wl.options(dataSeed, st.walDir), Seed: uint64(dataSeed),
		})
		if err != nil {
			return nil, err
		}
		srv = server.NewRouter(st.set, cfg)
	} else {
		if st.db, err = dsks.OpenDataset(ds, wl.options(dataSeed, "")); err != nil {
			return nil, err
		}
		srv = server.New(st.db, cfg)
	}
	st.open = time.Since(start) - st.generate

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeBackend()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	st.hs = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()

	if err := st.firstQuery(firstURL(ds)); err != nil {
		st.stop()
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

// rssSampler samples the process's resident set size every 10 ms and
// keeps the peak since it was last taken.
type rssSampler struct {
	peak atomic.Int64 // KB
	done chan struct{}
	wg   sync.WaitGroup
}

func startRSS() *rssSampler {
	p := &rssSampler{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb := rssKB(); kb > p.peak.Load() {
				p.peak.Store(kb)
			}
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// take returns the peak in MB since the last take and starts a new one.
func (p *rssSampler) take() float64 { return float64(p.peak.Swap(0)) / 1024 }

// stop ends the sampling and waits for the sampler to exit.
func (p *rssSampler) stop() {
	close(p.done)
	p.wg.Wait()
}

// rssKB is the process's current resident set size.
func rssKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb int64
			fmt.Sscanf(strings.TrimSpace(rest), "%d", &kb)
			return kb
		}
	}
	return 0
}

// firstURL is a search at object 0 for its own keywords: an answer that
// exists on every dataset, independent of the workload seed.
func firstURL(ds *dsks.Dataset) string {
	o := ds.Objects.Get(0)
	return readURL(kSearch, dsks.WorkloadQuery{Pos: o.Pos, Terms: o.Terms[:1], DeltaMax: 1000})
}

// firstQuery sends one read on a fresh connection and requires a 200.
func (st *stack) firstQuery(url string) error {
	c := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	resp, err := c.Get(st.base + url)
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first query: status %d", resp.StatusCode)
	}
	return nil
}

// stop shuts the server down, waits for it to exit, closes the backend
// and deletes its write-ahead logs.
func (st *stack) stop() error {
	var err error
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = st.hs.Shutdown(ctx)
		if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		st.hs = nil
	}
	if cerr := st.closeBackend(); err == nil {
		err = cerr
	}
	return err
}

func (st *stack) closeBackend() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var err error
	if st.set != nil {
		err = st.set.Close()
	}
	if st.db != nil {
		err = st.db.Close()
	}
	if st.walDir != "" {
		if rerr := os.RemoveAll(st.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// walBytes is the total size of the write-ahead log files on disk.
func (st *stack) walBytes() int64 {
	if st.walDir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(st.walDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// view pins a read view on the serving backend: a dsks.View on one node,
// a shard.MultiView on the shard set.
func (st *stack) view(ctx context.Context) (reader, error) {
	if st.set != nil {
		mv, err := st.set.View(ctx)
		if err != nil {
			return nil, err
		}
		return multiReader{mv}, nil
	}
	v, err := st.db.View(ctx)
	if err != nil {
		return nil, err
	}
	return dbReader{v}, nil
}

// counters is the sum of the backend's metrics registries: every
// database's pools, per-kind work and named counters, plus the router's.
func (st *stack) counters() dsks.MetricsSnapshot {
	if st.db != nil {
		return st.db.Snapshot()
	}
	sum := st.set.Metrics().Snapshot()
	if sum.Counters == nil {
		sum.Counters = map[string]int64{}
	}
	for i := 0; i < st.set.Shards(); i++ {
		s := st.set.DB(i).Snapshot()
		for name, p := range s.Pools {
			q := sum.Pools[name]
			q.LogicalReads += p.LogicalReads
			q.DiskReads += p.DiskReads
			sum.Pools[name] = q
		}
		for name, v := range s.Counters {
			sum.Counters[name] += v
		}
	}
	return sum
}

// setTraceHook installs h on every database of the backend.
func (st *stack) setTraceHook(h dsks.TraceHook) {
	if st.db != nil {
		st.db.SetTraceHook(h)
		return
	}
	for i := 0; i < st.set.Shards(); i++ {
		st.set.DB(i).SetTraceHook(h)
	}
}

// objectImbalance is max/mean live objects per shard (0 when unsharded).
func (st *stack) objectImbalance() float64 {
	if st.set == nil {
		return 0
	}
	var max, total int
	for i := 0; i < st.set.Shards(); i++ {
		n := st.set.DB(i).LiveObjects()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(st.set.Shards()) / float64(total)
}
