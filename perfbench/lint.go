package main

import (
	"archive/tar"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spio/internal/analysis"
)

// lint-module: one full spiolint pass — Load plus all analyzers — over
// a pinned copy of spio's write and serving paths. The input is fixed so
// that only the analyzer code under test, not the growth of the tree it
// lives in, moves the numbers.
var lintWorkload = workload{
	name:    "lint-module",
	primary: "lint",
	clients: 1,
	setup:   setupLint,
}

// lintFixture is the pinned input: go.mod and the non-test Go files of
// the twelve packages internal/{core,agg,mpi,lod,particle,format,fault,
// geom,reader,query,server,gateway} — the write path, the serving tier
// and everything they import — at commit
// a9167872b6bdf6d33bd88a179eda1a6222d9373f.
const lintFixture = "perfbench/testdata/lintmod.tar.gz"

// What a pass over the fixture must report: packages loaded, findings
// that fail the run, and findings suppressed by //spio:allow.
const (
	lintPackages   = 12
	lintFindings   = 0
	lintSuppressed = 11
)

// lintCheck is one pass's outcome.
type lintCheck struct {
	packages, findings, suppressed int
	load, run                      time.Duration
	timings                        []analysis.AnalyzerTiming
}

type lintInst struct {
	dir    string
	oldWd  string
	srcLen int64 // bytes of Go source in the input
}

func setupLint(e env) (instance, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dataDir, "module")
	n, err := extract(filepath.Join(e.root, lintFixture), dir)
	if err != nil {
		return nil, err
	}
	// The loader resolves packages relative to the working directory.
	if err := os.Chdir(dir); err != nil {
		return nil, err
	}
	return &lintInst{dir: dir, oldWd: wd, srcLen: n}, nil
}

// extract unpacks a .tar.gz of regular files into dir and returns the
// bytes of Go source written.
func extract(archive, dir string) (int64, error) {
	f, err := os.Open(archive)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return 0, err
	}
	tr := tar.NewReader(zr)
	var src int64
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return src, nil
		}
		if err != nil {
			return 0, err
		}
		if h.Typeflag != tar.TypeReg || !filepath.IsLocal(h.Name) {
			continue
		}
		p := filepath.Join(dir, h.Name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return 0, err
		}
		out, err := os.Create(p)
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(out, tr)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		if strings.HasSuffix(h.Name, ".go") {
			src += n
		}
	}
}

func (l *lintInst) warm(cs []*client) error {
	rec := l.op(cs[0])
	return rec.err
}

func (l *lintInst) op(c *client) opRecord {
	req := c.tr.nextReq()
	root := c.tr.open("lint", 0, req)
	t0 := time.Now()
	s := c.tr.open("analysis.load", root.ID, req)
	pkgs, err := analysis.Load([]string{"./..."})
	c.tr.close(s)
	t1 := time.Now()
	rec := opRecord{kind: "lint", bytes: l.srcLen}
	if err != nil {
		rec.err = err
	} else {
		s = c.tr.open("analysis.run", root.ID, req)
		diags, timings := analysis.RunTimed(analysis.Analyzers(), pkgs)
		c.tr.close(s)
		chk := &lintCheck{packages: len(pkgs), load: t1.Sub(t0), run: time.Since(t1), timings: timings}
		for _, d := range diags {
			if d.Suppressed {
				chk.suppressed++
			} else {
				chk.findings++
			}
		}
		rec.check = chk
	}
	rec.lat = time.Since(t0)
	c.tr.close(root)
	return rec
}

// verify requires every pass to load cleanly and report exactly the
// fixture's known findings.
func (l *lintInst) verify(recs []*opRecord) error {
	for _, r := range recs {
		if ck, ok := r.check.(*lintCheck); ok {
			if ck.packages != lintPackages || ck.findings != lintFindings || ck.suppressed != lintSuppressed {
				r.bad = fmt.Sprintf("packages=%d findings=%d suppressed=%d, want %d/%d/%d",
					ck.packages, ck.findings, ck.suppressed, lintPackages, lintFindings, lintSuppressed)
			}
		}
	}
	return nil
}

func (l *lintInst) snapshot() any { return nil }

func (l *lintInst) report(*window, map[string]float64) {}

func (l *lintInst) layers(w *window, _, _ any) map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var load, run, pkgs, finds []float64
	per := map[string][]float64{}
	for _, r := range w.recs {
		ck, ok := r.check.(*lintCheck)
		if !ok {
			continue
		}
		load = append(load, ms(ck.load))
		run = append(run, ms(ck.run))
		pkgs = append(pkgs, float64(ck.packages))
		finds = append(finds, float64(ck.findings+ck.suppressed))
		for _, t := range ck.timings {
			per[t.Name] = append(per[t.Name], ms(t.Elapsed))
		}
	}
	m := map[string]float64{
		"analysis.load_ms":  median(load),
		"analysis.run_ms":   median(run),
		"analysis.packages": median(pkgs),
		"analysis.findings": median(finds),
	}
	for name, v := range per {
		m["analysis."+name+"_ms"] = median(v)
	}
	return m
}

func (l *lintInst) close() error {
	return os.Chdir(l.oldWd)
}
