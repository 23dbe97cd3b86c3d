package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"spio"
)

// The read workloads share one dataset shape and one operation mix.
const (
	readRanks     = 32
	readClients   = 2 // closed-loop clients: no more than the 2 cores the figures were taken on
	readPerRank   = 8192
	readClusters  = 3
	readKNN       = 32
	readWarmOps   = 40 // per client
	boxEdgeMin    = 0.1
	boxEdgeMax    = 0.4
	readerCount   = 1 // n in the LOD level-size formula: one reading process
	readFileSlots = 8 // fewer than the 16 files, so the file cache must evict
)

// writeReadDataset writes the clustered 32-rank dataset both read
// workloads query (4x4x2 patches, 1x1x2 aggregation: 16 files) and
// returns the ranks' particles.
func writeReadDataset(dir string, seed int64, codec func(*spio.Schema) spio.CodecSpec) ([]*spio.Buffer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	simDims := spio.I3(4, 4, 2)
	domain := spio.UnitBox()
	grid := spio.NewGrid(domain, simDims)
	schema := spio.UintahSchema()
	cfg := spio.WriteConfig{
		Agg:  spio.AggConfig{Domain: domain, SimDims: simDims, Factor: spio.I3(1, 1, 2)},
		Seed: seed,
		FS:   pageCacheFS{},
	}
	if codec != nil {
		cfg.Codec = codec(schema)
	}
	locals := make([]*spio.Buffer, readRanks)
	err := spio.Run(readRanks, func(c *spio.Comm) error {
		r := c.Rank()
		locals[r] = spio.Clustered(schema, grid.CellBox(spio.Unlinear(r, simDims)), readPerRank, readClusters, seed, r)
		_, err := spio.Write(c, dir, cfg, locals[r])
		return err
	})
	return locals, err
}

// levelStream is a progressive read, local or remote.
type levelStream interface {
	NextLevel() (*spio.Buffer, bool, error)
	Close() error
}

// readTarget is what a read workload queries: one shared local dataset
// or one remote connection per client.
type readTarget interface {
	box(c *client, q spio.Box) (*spio.Buffer, spio.ReadStats, error)
	knn(c *client, p spio.Vec3, k int) (*spio.Buffer, []float64, spio.ReadStats, error)
	stream(c *client, q spio.Box) (levelStream, error)
}

// readMix runs the box / KNN / progressive mix against a target and
// checks every answer against the generated input.
type readMix struct {
	target  readTarget
	truth   *truth
	stride  int64
	boxSpan string // span names of the layer the calls enter
	knnSpan string
}

// knnCheck is what a KNN answer is verified against.
type knnCheck struct {
	p     spio.Vec3
	dists []float64
}

// opCycle is the fixed order each client runs operation kinds in:
// 60% box queries, 20% KNN, 20% progressive reads. A fixed order keeps
// the mix of every window the same whatever the seed.
var opCycle = []string{"box", "knn", "box", "lod", "box"}

// edgeSteps are the irrational strides of the low-discrepancy sequence
// box edges follow, one per axis.
var edgeSteps = [3]float64{0.6180339887498949, 0.4142135623730951, 0.7320508075688772}

// queryBox returns client c's n-th query box. Its edges run through a
// low-discrepancy sequence over [boxEdgeMin, boxEdgeMax], so every
// window sees the same spread of box sizes; where the box lies is drawn
// from the seeded generator.
func queryBox(c *client, n int) spio.Box {
	var lo, hi [3]float64
	for a := range lo {
		f := float64(n+c.id*7919) * edgeSteps[a]
		e := boxEdgeMin + (boxEdgeMax-boxEdgeMin)*(f-math.Floor(f))
		lo[a] = (1 - e) * c.rng.Float64()
		hi[a] = lo[a] + e
	}
	return spio.NewBox(spio.V3(lo[0], lo[1], lo[2]), spio.V3(hi[0], hi[1], hi[2]))
}

func (m *readMix) bytes(bufs ...*spio.Buffer) int64 {
	var n int64
	for _, b := range bufs {
		if b != nil {
			n += int64(b.Len())
		}
	}
	return n * m.stride
}

func (m *readMix) op(c *client) opRecord {
	req := c.tr.nextReq()
	n := c.ops
	c.ops++
	switch opCycle[n%len(opCycle)] {
	case "box":
		q := queryBox(c, n)
		s := c.tr.open(m.boxSpan, 0, req)
		t0 := time.Now()
		buf, st, err := m.target.box(c, q)
		lat := time.Since(t0)
		c.tr.close(s)
		return opRecord{kind: "box", lat: lat, bytes: m.bytes(buf), st: st, err: err, res: held(buf), check: q}
	case "knn":
		p := spio.V3(c.rng.Float64(), c.rng.Float64(), c.rng.Float64())
		s := c.tr.open(m.knnSpan, 0, req)
		t0 := time.Now()
		buf, dists, st, err := m.target.knn(c, p, readKNN)
		lat := time.Since(t0)
		c.tr.close(s)
		return opRecord{kind: "knn", lat: lat, bytes: m.bytes(buf), st: st, err: err, res: held(buf),
			check: knnCheck{p, dists}}
	}
	q := queryBox(c, n)
	root := c.tr.open("lod", 0, req)
	// Progressive levels carry whole files; the answer to the box is
	// their particles inside it.
	rec := opRecord{kind: "lod", check: q, filter: &q}
	t0 := time.Now()
	stream, err := m.target.stream(c, q)
	for err == nil {
		s := c.tr.open("reader.progressive_level", root.ID, req)
		var lvl *spio.Buffer
		var ok bool
		lvl, ok, err = stream.NextLevel()
		c.tr.close(s)
		if err != nil || !ok {
			break
		}
		if rec.first == 0 {
			rec.first = time.Since(t0)
		}
		rec.res = append(rec.res, lvl)
	}
	if stream != nil {
		if cerr := stream.Close(); err == nil {
			err = cerr
		}
	}
	rec.lat = time.Since(t0)
	c.tr.close(root)
	rec.err = err
	rec.bytes = m.bytes(rec.res...)
	return rec
}

func held(b *spio.Buffer) []*spio.Buffer {
	if b == nil {
		return nil
	}
	return []*spio.Buffer{b}
}

// warm runs readWarmOps operations on every client concurrently.
func (m *readMix) warm(cs []*client) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < readWarmOps; n++ {
				if rec := m.op(c); rec.err != nil {
					errs[i] = rec.err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verify compares every answer with the input: boxes and progressive
// streams by the fingerprint of the particles inside the box, KNN by
// its distances and the fingerprint of its neighbours.
func (m *readMix) verify(recs []*opRecord) error {
	var wg sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(recs); i += n {
				m.check(recs[i])
			}
		}()
	}
	wg.Wait()
	return nil
}

func (m *readMix) check(r *opRecord) {
	if r.err != nil {
		return
	}
	switch ck := r.check.(type) {
	case spio.Box:
		if want := m.truth.box(ck); r.got != want {
			r.bad = fmt.Sprintf("%s %v: got %+v, want %+v", r.kind, ck, r.got, want)
		}
	case knnCheck:
		want, wfp := m.truth.knn(ck.p, readKNN)
		if !sameDists(ck.dists, want) || r.got != wfp {
			r.bad = fmt.Sprintf("knn %v: got %v %+v, want %v %+v", ck.p, ck.dists, r.got, want, wfp)
		}
	}
}

// readLayers derives the client-side read metrics of a traced window:
// per-call latencies from spans, and the read accounting the calls
// returned.
func (m *readMix) readLayers(w *window) map[string]float64 {
	var boxes, knns int
	var files, bytesRead, pRead, pKept, knnRead float64
	for _, r := range w.recs {
		if r.err != nil {
			continue
		}
		switch r.kind {
		case "box":
			boxes++
			files += float64(r.st.FilesOpened)
			bytesRead += float64(r.st.BytesRead)
			pRead += float64(r.st.ParticlesRead)
			pKept += float64(r.st.ParticlesKept)
		case "knn":
			knns++
			knnRead += float64(r.st.ParticlesRead)
		}
	}
	return map[string]float64{
		m.boxSpan + "_ms":                     median(w.tr.durations(m.boxSpan)),
		m.knnSpan + "_ms":                     median(w.tr.durations(m.knnSpan)),
		"reader.progressive_level_ms":         median(w.tr.durations("reader.progressive_level")),
		"reader.files_opened_per_op":          files / float64(max(boxes, 1)),
		"reader.bytes_read_per_op":            bytesRead / float64(max(boxes, 1)),
		"reader.read_amplification":           pRead / max(pKept, 1),
		"query.knn_particles_read_per_result": knnRead / float64(max(knns*readKNN, 1)),
	}
}
