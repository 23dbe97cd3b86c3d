package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"spio"
)

// setupReps is how many times a run builds its whole set-up; setup_s is
// the median, so one slow pass does not decide it.
const setupReps = 3

// env is what every workload is built from.
type env struct {
	seed    int64
	root    string // the checkout, for the benchmark's own fixtures
	dataDir string // scratch space for this workload's files
}

// opRecord is one operation of a timed window.
type opRecord struct {
	kind  string        // primary kinds: "ckpt", "box", "lint"; others: "knn", "lod"
	lat   time.Duration // call latency, the operation as a user waits for it
	first time.Duration // lod: time until the coarsest level is in hand
	bytes int64         // user bytes written or returned
	st    spio.ReadStats
	err   error
	bad   string // set by verification when the output is wrong
	check any    // what the workload's verifier needs

	// res is the answer, which the client fingerprints into got after
	// the call, counting only the particles inside filter when that is
	// set, and then drops.
	res    []*spio.Buffer
	filter *spio.Box
	got    fp
	client int
}

func (r *opRecord) failed() bool { return r.err != nil || r.bad != "" }

// digest fingerprints a held answer and drops it.
func (r *opRecord) digest() {
	for _, b := range r.res {
		r.got.merge(fpOf(b, r.filter))
	}
	r.res = nil
}

// client is one closed-loop load generator.
type client struct {
	id  int
	rng *rand.Rand
	tr  *tracer // nil when untraced
	ops int     // operations this client has started
}

// instance is one set-up of a workload, ready to run operations.
type instance interface {
	// warm runs the fixed warm-up set-up ends with.
	warm(cs []*client) error
	// op runs one operation for client c.
	op(c *client) opRecord
	// verify checks the window's answers, setting bad on wrong ones, and
	// returns an error for a failed run-level check.
	verify(recs []*opRecord) error
	// snapshot returns the layer counters, taken at window boundaries.
	snapshot() any
	// layers derives the per-layer metrics of a traced window.
	layers(w *window, before, after any) map[string]float64
	// report adds the workload's report-only metrics to m.
	report(w *window, m map[string]float64)
	close() error
}

// workload is one named benchmark scenario.
type workload struct {
	name    string
	primary string // the operation kind the latency and rate metrics time
	clients int
	setup   func(e env) (instance, error)
}

// window is the outcome of one timed interval.
type window struct {
	recs    []*opRecord
	elapsed time.Duration
	// busy is each client's time inside operations. Rates divide by it,
	// so what a client does between calls — checking the answer, or
	// deleting an old checkpoint — counts in no metric.
	busy    []time.Duration
	tr      *tracer
	mem     [2]runtime.MemStats
	peakRSS int64 // bytes; see sampleRSS
	// stealPct is the share of the machine's CPU time the hypervisor
	// gave to others during the window: a noisy neighbour shows here.
	stealPct float64
}

// rssEvery is how often a window samples the process's resident set.
const rssEvery = 5 * time.Millisecond

// sampleRSS samples the resident set until stop closes and sets peakRSS
// to the median over the window's whole seconds of each second's largest
// sample: a peak the window reaches again and again, not a one-off
// coincidence of large answers in flight.
func (w *window) sampleRSS(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	start := time.Now()
	var peaks []float64 // per whole second
	var cur int64       // largest sample of the current second
	for {
		if time.Since(start) > time.Duration(len(peaks)+1)*time.Second {
			peaks = append(peaks, float64(cur))
			cur = 0
		}
		cur = max(cur, residentBytes())
		select {
		case <-stop:
			if len(peaks) == 0 {
				peaks = append(peaks, float64(cur))
			}
			w.peakRSS = int64(median(peaks))
			return
		case <-t.C:
		}
	}
}

// run drives every client in a closed loop until d has passed; each
// client finishes the operation in flight, so the window ends when the
// last one returns. After each call the client fingerprints the answer
// and drops it, so no answer outlives its operation.
func run(inst instance, clients int, seed int64, d time.Duration, tr *tracer) *window {
	w := &window{tr: tr, busy: make([]time.Duration, clients)}
	per := make([][]*opRecord, clients)
	// Return what set-up left behind, so the window's resident set is
	// its own.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&w.mem[0])
	stopRSS, rssDone := make(chan struct{}), make(chan struct{})
	go w.sampleRSS(stopRSS, rssDone)
	steal0, total0 := cpuSteal()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		c := &client{id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i))), tr: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				rec := inst.op(c)
				rec.client = c.id
				rec.digest()
				w.busy[c.id] += rec.lat
				per[c.id] = append(per[c.id], &rec)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		w.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	close(stopRSS)
	<-rssDone
	runtime.ReadMemStats(&w.mem[1])
	for _, rs := range per {
		w.recs = append(w.recs, rs...)
	}
	return w
}

// newClients returns the warm-up clients, seeded apart from the timed
// ones so warm-up does not pre-load the window's exact queries.
func newClients(n int, seed int64) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(-seed*1000 - int64(i) - 1))}
	}
	return cs
}

// setUp builds the workload setupReps times, keeping the last instance,
// and returns it with the median set-up time in seconds. The heap is
// collected between repetitions, outside the timed part, so each one
// starts from the same state.
func setUp(wl workload, seed int64, root, dataRoot string) (instance, float64, error) {
	var times []float64
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(dataRoot, wl.name, fmt.Sprintf("rep%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		inst, err = wl.setup(env{seed: seed, root: root, dataDir: dir})
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if err := inst.warm(newClients(wl.clients, seed)); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
	}
	return inst, median(times), nil
}

// endToEnd derives the user-visible metrics of an untraced window.
func endToEnd(w *window, primary string) (map[string]float64, map[string]dist) {
	var lat, knn, first []float64
	ok := make([]float64, len(w.busy))
	bytes := make([]float64, len(w.busy))
	for _, r := range w.recs {
		if r.err != nil {
			continue
		}
		bytes[r.client] += float64(r.bytes)
		ms := float64(r.lat) / 1e6
		switch r.kind {
		case primary:
			ok[r.client]++
			lat = append(lat, ms)
		case "knn":
			knn = append(knn, ms)
		case "lod":
			first = append(first, float64(r.first)/1e6)
		}
	}
	// Each client's rate over its own busy time, summed over clients.
	var ops, mbs float64
	for c, busy := range w.busy {
		if secs := busy.Seconds(); secs > 0 {
			ops += ok[c] / secs
			mbs += bytes[c] / 1e6 / secs
		}
	}
	d := map[string]dist{"lat": newDist(lat), "knn": newDist(knn), "lod_first": newDist(first)}
	m := map[string]float64{
		"ops_per_s":       ops,
		"throughput_mb_s": mbs,
		"lat_p50_ms":      d["lat"].pct(50),
		"lat_p95_ms":      d["lat"].pct(95),
		"success_ratio":   successRatio(w.recs),
	}
	if len(knn) > 0 {
		m["knn_p50_ms"] = d["knn"].pct(50)
	}
	if len(first) > 0 {
		m["lod_first_ms"] = d["lod_first"].pct(50)
	}
	return m, d
}

func successRatio(recs []*opRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	good := 0
	for _, r := range recs {
		if !r.failed() {
			good++
		}
	}
	return float64(good) / float64(len(recs))
}

// runtimeLayers derives the process-wide costs of a window.
func runtimeLayers(w *window) map[string]float64 {
	var bytes float64
	for _, r := range w.recs {
		bytes += float64(r.bytes)
	}
	alloc := float64(w.mem[1].TotalAlloc - w.mem[0].TotalAlloc)
	pause := float64(w.mem[1].PauseTotalNs-w.mem[0].PauseTotalNs) / 1e6
	m := map[string]float64{"runtime.gc_pause_ms_per_op": pause / float64(max(len(w.recs), 1))}
	if bytes > 0 {
		m["runtime.alloc_bytes_per_user_byte"] = alloc / bytes
	}
	return m
}
