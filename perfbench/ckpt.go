package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spio"
)

// write-ckpt: a persistent 16-rank world writes one checkpoint step per
// operation — exchange, LOD reorder, codec, write/fsync/rename — the
// paper's write path end to end.
var ckptWorkload = workload{
	name:    "write-ckpt",
	primary: "ckpt",
	clients: 1,
	setup:   setupCkpt,
}

const (
	ckptRanks   = 16
	ckptPerRank = 8192 // x 16 ranks x 124 B Uintah records = 16.3 MB per step
	ckptWarmOps = 20
)

// ckptCmd asks every rank to write one step.
type ckptCmd struct {
	step   int
	req    int64
	parent int64
	tr     *tracer
}

// rankResult is one rank's outcome of a step.
type rankResult struct {
	res spio.WriteResult
	dur time.Duration
	err error
}

// ckptCheck is what a checkpoint operation leaves for the layer
// breakdown: each rank's write result and the bytes the step published.
type ckptCheck struct {
	ranks  []rankResult
	stored int64
}

type ckptInst struct {
	base      string
	cmds      []chan ckptCmd
	results   []chan rankResult // rank r reports on results[r]
	done      chan error
	step      int
	inputFP   fp
	userBytes int64
}

func setupCkpt(e env) (instance, error) {
	base := filepath.Join(e.dataDir, "series")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	simDims := spio.I3(4, 4, 1)
	domain := spio.UnitBox()
	grid := spio.NewGrid(domain, simDims)
	schema := spio.UintahSchema()
	cfg := spio.WriteConfig{
		Agg:   spio.AggConfig{Domain: domain, SimDims: simDims, Factor: spio.I3(2, 2, 1)},
		Seed:  e.seed,
		Codec: spio.FastCodec(schema),
		FS:    pageCacheFS{},
	}
	inst := &ckptInst{base: base, done: make(chan error, 1)}
	locals := make([]*spio.Buffer, ckptRanks)
	for r := range locals {
		locals[r] = spio.Uniform(schema, grid.CellBox(spio.Unlinear(r, simDims)), ckptPerRank, e.seed, r)
		inst.inputFP.merge(fpOf(locals[r], nil))
		inst.userBytes += int64(locals[r].Len() * schema.Stride())
		inst.cmds = append(inst.cmds, make(chan ckptCmd))
	}
	res := make([]chan rankResult, ckptRanks)
	for r := range res {
		res[r] = make(chan rankResult, 1)
	}
	inst.results = res
	go func() {
		inst.done <- spio.Run(ckptRanks, func(c *spio.Comm) error {
			r := c.Rank()
			for cmd := range inst.cmds[r] {
				s := cmd.tr.open("core.write", cmd.parent, cmd.req)
				start := time.Now()
				wr, err := spio.WriteStep(c, base, cmd.step, cfg, locals[r])
				d := time.Since(start)
				cmd.tr.close(s)
				res[r] <- rankResult{wr, d, err}
			}
			return nil
		})
	}()
	return inst, nil
}

func (k *ckptInst) warm(cs []*client) error {
	for i := 0; i < ckptWarmOps; i++ {
		if rec := k.op(cs[0]); rec.err != nil {
			return rec.err
		}
	}
	return nil
}

func (k *ckptInst) op(c *client) opRecord {
	step := k.step
	k.step++
	req := c.tr.nextReq()
	root := c.tr.open("ckpt", 0, req)
	start := time.Now()
	for _, ch := range k.cmds {
		ch <- ckptCmd{step: step, req: req, parent: root.ID, tr: c.tr}
	}
	chk := &ckptCheck{ranks: make([]rankResult, ckptRanks)}
	var err error
	for r, ch := range k.results {
		chk.ranks[r] = <-ch
		if chk.ranks[r].err != nil && err == nil {
			err = fmt.Errorf("rank %d: %w", r, chk.ranks[r].err)
		}
	}
	rec := opRecord{kind: "ckpt", lat: time.Since(start), bytes: k.userBytes, err: err, check: chk}
	c.tr.close(root)
	// Outside the timed call: size the published step and drop the one
	// before it, so the series stays one step deep.
	chk.stored = dirBytes(spio.StepDir(k.base, step))
	if step > 0 {
		if err := os.RemoveAll(spio.StepDir(k.base, step-1)); err != nil && rec.err == nil {
			rec.err = err
		}
	}
	return rec
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// verify re-reads the newest step: its particle multiset must equal the
// input's and fsck (payload checksums and the partition invariant) must
// find nothing.
func (k *ckptInst) verify(recs []*opRecord) error {
	ds, err := spio.OpenStep(k.base, k.step-1)
	if err != nil {
		return err
	}
	defer ds.Close()
	if probs := ds.Fsck(spio.FsckOptions{Checksums: true, Deep: true}); len(probs) > 0 {
		return fmt.Errorf("fsck of step %d: %v", k.step-1, probs)
	}
	all, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		return err
	}
	if got := fpOf(all, nil); got != k.inputFP {
		return fmt.Errorf("step %d holds %+v, input was %+v", k.step-1, got, k.inputFP)
	}
	return nil
}

func (k *ckptInst) snapshot() any { return nil }

func ckptChecks(w *window) []*ckptCheck {
	var out []*ckptCheck
	for _, r := range w.recs {
		if c, ok := r.check.(*ckptCheck); ok && r.err == nil {
			out = append(out, c)
		}
	}
	return out
}

func (k *ckptInst) report(w *window, m map[string]float64) {
	var stored []float64
	for _, c := range ckptChecks(w) {
		stored = append(stored, float64(c.stored))
	}
	m["stored_bytes_per_user_byte"] = mean(stored) / float64(k.userBytes)
}

func (k *ckptInst) layers(w *window, _, _ any) map[string]float64 {
	var write, skew, meta, part, xmb, reorder, fileIO, metaIO, stored []float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, c := range ckptChecks(w) {
		var durs []float64
		var m [5]time.Duration // meta, particle, reorder, file, metaIO maxima
		var xb int64
		for _, r := range c.ranks {
			durs = append(durs, ms(r.dur))
			t := r.res.Timing
			m[0] = max(m[0], t.MetadataExchange)
			m[1] = max(m[1], t.ParticleExchange)
			if r.res.Partition >= 0 {
				m[2] = max(m[2], t.Reorder)
				m[3] = max(m[3], t.FileIO)
				m[4] = max(m[4], t.MetaIO)
			}
			xb += t.ExchangeBytes
		}
		sort.Float64s(durs)
		write = append(write, durs...)
		skew = append(skew, durs[len(durs)-1]-median(durs))
		meta = append(meta, ms(m[0]))
		part = append(part, ms(m[1]))
		reorder = append(reorder, ms(m[2]))
		fileIO = append(fileIO, ms(m[3]))
		metaIO = append(metaIO, ms(m[4]))
		xmb = append(xmb, float64(xb)/1e6)
		stored = append(stored, float64(c.stored)/1e6)
	}
	return map[string]float64{
		"core.write_ms":            median(write),
		"core.rank_skew_ms":        median(skew),
		"agg.meta_exchange_ms":     median(meta),
		"agg.particle_exchange_ms": median(part),
		"agg.exchange_mb_per_op":   mean(xmb),
		"lod.reorder_ms":           median(reorder),
		"format.file_io_ms":        median(fileIO),
		"format.meta_io_ms":        median(metaIO),
		"format.stored_mb_per_op":  mean(stored),
	}
}

func (k *ckptInst) close() error {
	for _, ch := range k.cmds {
		close(ch)
	}
	return <-k.done
}
