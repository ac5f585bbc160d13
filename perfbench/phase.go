package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"fpgasched/client"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
)

// workloadDef describes one workload: whether its daemon persists
// admissions, how many operations each client runs as warm-up before
// timing, and how its traffic is built.
type workloadDef struct {
	store    bool
	warmup   int
	newBench func(seed uint64, d *daemon, opsCap int) bench
}

var workloads = map[string]workloadDef{
	"analyze-hot": {warmup: 256, newBench: func(seed uint64, d *daemon, n int) bench {
		return newHotBench(seed, d, n)
	}},
	"analyze-cold": {warmup: 32, newBench: func(seed uint64, d *daemon, n int) bench {
		return newColdBench(seed, d, n)
	}},
	"admit-churn": {store: true, warmup: 64, newBench: func(seed uint64, d *daemon, n int) bench {
		return newChurnBench(seed, d, n)
	}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one workload's traffic against one daemon. op is called
// concurrently for different clients, never twice at once for the same
// client; every other method runs outside the timed window.
type bench interface {
	// setup fills the daemon before warm-up: the verdict cache for
	// analyze-hot, the admission controllers for admit-churn.
	setup(ctx context.Context) error
	// op runs client c's next operation and returns the latency of its
	// requests as the client saw them.
	op(ctx context.Context, c int) (time.Duration, error)
	// check compares the recorded answers with the library and returns
	// how many operations disagreed.
	check(ctx context.Context) (int, error)
	// layerSets returns up to layerSetCap of the workload's tasksets for
	// the traced run's task, engine and core replays.
	layerSets() []*task.Set
	// analysis returns the analysis time check measured for one served
	// call of operation req, which the server's self time excludes;
	// false when that call was not measured.
	analysis(req uint64, call string) (time.Duration, bool)
	// admission returns the admission and api timings check collected,
	// or nil when the workload runs no admission controllers.
	admission() *admissionStats
}

// maxOpsPerClientSecond sizes the per-client sample buffers so they never
// grow during a timed phase: a growing buffer would make heap_live_mb
// jump with the number of operations completed.
const maxOpsPerClientSecond = 8000

func opsCap(secs time.Duration, warmup int) int {
	return int(secs.Seconds())*maxOpsPerClientSecond + warmup
}

// counters is a snapshot of the process- and daemon-wide counters the
// per-layer metrics are deltas of.
type counters struct {
	mem runtime.MemStats
	cpu time.Duration
	eng engine.Stats
	wal durable.Metrics
}

// phase is one set-up and timed run of a workload on one daemon.
type phase struct {
	d             *daemon
	b             bench
	setups        []float64 // seconds, one per set-up
	lat           []float64 // µs, every completed timed operation
	at            []float64 // seconds into the timed phase each operation completed, aligned with lat
	ops           int       // timed operations attempted
	errs          int       // timed operations that returned an error
	mismatches    int       // operations whose answer disagreed with the library
	wall          time.Duration
	heap          uint64 // live heap after a forced GC at the end of the timed phase
	before, after counters
}

// runPhase sets the workload up `setups` times (keeping the last daemon),
// runs the timed phase and checks the answers. On success the caller owns
// ph.d and must close it.
func runPhase(ctx context.Context, cfg runConfig, setups int, tr *tracer) (*phase, error) {
	ph := &phase{}
	fail := func(err error) (*phase, error) {
		if ph.d != nil {
			err = errors.Join(err, ph.d.close())
		}
		return nil, err
	}
	for i := 0; i < setups; i++ {
		if ph.d != nil {
			if err := ph.d.close(); err != nil {
				return nil, err
			}
			ph.d = nil
		}
		start := time.Now()
		d, err := startDaemon(cfg.scratch, cfg.def.store, tr)
		if err != nil {
			return nil, err
		}
		ph.d = d
		ph.b = cfg.def.newBench(cfg.seed, d, opsCap(cfg.secs, cfg.def.warmup))
		if err := ph.b.setup(ctx); err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		if err := forClients(func(c int) error {
			for k := 0; k < cfg.def.warmup; k++ {
				if _, err := ph.b.op(ctx, c); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		ph.setups = append(ph.setups, time.Since(start).Seconds())
	}
	ph.timed(ctx, cfg.secs, tr)
	bad, err := ph.b.check(ctx)
	if err != nil {
		return fail(fmt.Errorf("check: %w", err))
	}
	ph.mismatches = bad
	return ph, nil
}

// timed runs every client closed-loop until secs have passed: each client
// sends its next operation as soon as the previous one returns.
func (ph *phase) timed(ctx context.Context, secs time.Duration, tr *tracer) {
	lats := make([][]float64, clients)
	ats := make([][]float64, clients)
	errs := make([]int, clients)
	for c := range lats {
		lats[c] = make([]float64, 0, opsCap(secs, 0))
		ats[c] = make([]float64, 0, opsCap(secs, 0))
	}
	ph.before = ph.d.snapshot()
	if tr != nil {
		tr.reset()
	}
	start := time.Now()
	deadline := start.Add(secs)
	_ = forClients(func(c int) error {
		for time.Now().Before(deadline) {
			lat, err := ph.b.op(ctx, c)
			if err != nil {
				errs[c]++
				continue
			}
			lats[c] = append(lats[c], us(lat))
			ats[c] = append(ats[c], time.Since(start).Seconds())
		}
		return nil
	})
	ph.wall = time.Since(start)
	ph.after = ph.d.snapshot()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heap = ms.HeapAlloc
	for c := range lats {
		ph.lat = append(ph.lat, lats[c]...)
		ph.at = append(ph.at, ats[c]...)
		ph.errs += errs[c]
		ph.ops += len(lats[c]) + errs[c]
	}
}

// window is the slice of a timed phase over which latency percentiles are
// first computed. p50_us and p90_us are medians across the slices, so a
// few seconds of interference from outside the process move them less
// than they would move a whole-phase percentile.
const window = time.Second

// rate is ops_per_s: completed operations over the timed phase's wall
// time.
func (ph *phase) rate() metric {
	return metric{Value: float64(len(ph.lat)) / ph.wall.Seconds(), Unit: "1/s", samples: len(ph.lat)}
}

// windowed returns p50_us and p90_us as medians across the whole windows
// of the timed phase. Each carries the number of operations it
// summarizes and the fewest samples any window had beyond it.
func (ph *phase) windowed(secs time.Duration) (p50, p90 metric) {
	buckets := make([][]float64, int(secs/window))
	for i, at := range ph.at {
		if k := int(at / window.Seconds()); k < len(buckets) {
			buckets[k] = append(buckets[k], ph.lat[i])
		}
	}
	var p50s, p90s []float64
	beyond50, beyond90 := len(ph.lat), len(ph.lat)
	for _, b := range buckets {
		d := newDist(b)
		v50, n50 := d.pct(50)
		v90, n90 := d.pct(90)
		p50s, p90s = append(p50s, v50), append(p90s, v90)
		beyond50, beyond90 = min(beyond50, n50), min(beyond90, n90)
	}
	median := func(xs []float64, beyond int) metric {
		v, _ := newDist(xs).pct(50)
		return metric{Value: v, Unit: "us", samples: len(ph.lat), beyond: beyond, pct: true}
	}
	return median(p50s, beyond50), median(p90s, beyond90)
}

// forClients runs fn once per client, concurrently, and waits for all.
func forClients(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemon is one in-process fpgaschedd: internal/server on a loopback
// listener with a benchmark-owned engine, an optional durable store, and
// one SDK client per benchmark client, each with its own connection pool.
type daemon struct {
	eng     *engine.Engine
	srv     *server.Server
	store   *durable.Store // nil unless the workload persists admissions
	dir     string         // the store's directory
	hs      *http.Server
	served  chan error
	pools   []*http.Transport
	clients []*client.Client
	tr      *tracer // nil in untraced runs
}

// startDaemon boots a daemon with the default engine configuration. With
// withStore the server persists every mutation to a fresh WAL with
// fsync=always, the only policy under which an acknowledged admission
// survives a crash. With a tracer the server, store and clients are
// wrapped to record spans.
func startDaemon(scratch string, withStore bool, tr *tracer) (*daemon, error) {
	d := &daemon{eng: engine.New(engine.Config{}), tr: tr}
	cfg := server.Config{Engine: d.eng}
	if withStore {
		dir, err := os.MkdirTemp(scratch, "state-")
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.dir = dir
		if d.store, err = durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways}); err != nil {
			return nil, errors.Join(err, d.close())
		}
		cfg.Store = d.store
		if tr != nil {
			cfg.Store = &timingStore{inner: d.store, tr: tr}
		}
	}
	d.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	var h http.Handler = d.srv
	if tr != nil {
		h = tr.handler(d.srv)
	}
	d.hs = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for c := 0; c < clients; c++ {
		pool := &http.Transport{MaxIdleConnsPerHost: clients}
		d.pools = append(d.pools, pool)
		var rt http.RoundTripper = pool
		if tr != nil {
			rt = traceTransport{base: pool}
		}
		cl, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// close shuts the listener down and waits for the serve loop to return,
// then releases the server, engine and store and removes the store's
// directory.
func (d *daemon) close() error {
	var errs []error
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.hs.Shutdown(ctx))
		cancel()
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, p := range d.pools {
		p.CloseIdleConnections()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.eng.Close()
	if d.store != nil {
		errs = append(errs, d.store.Close())
	}
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}

// snapshot reads the counters the per-layer metrics are deltas of.
func (d *daemon) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	c.eng = d.eng.Stats()
	if d.store != nil {
		c.wal = d.store.Metrics()
	}
	return c
}

// call runs one SDK call of operation req as client c and returns its
// client-observed latency. In a traced run the call is a client span,
// and the span's identity rides to the server in request headers.
func (d *daemon) call(ctx context.Context, c int, req uint64, name string, fn func(context.Context) error) (time.Duration, error) {
	if d.tr == nil {
		start := time.Now()
		err := fn(ctx)
		return time.Since(start), err
	}
	s := span{ID: d.tr.newID(), Req: req, Name: name}
	ctx = context.WithValue(ctx, spanKey{}, s)
	s.Start = d.tr.now()
	err := fn(ctx)
	s.End = d.tr.now()
	d.tr.add(s)
	return s.dur(), err
}

// opID names client c's i-th operation; every span of the operation
// carries it as its request id.
func opID(c, i int) uint64 { return uint64(c+1)<<40 | uint64(i) }

// clientOf recovers the client index from an operation id.
func clientOf(req uint64) int { return int(req>>40) - 1 }

func ctrlName(c int) string { return "bench-" + strconv.Itoa(c) }
