package main

import (
	"path/filepath"
	"time"

	"spio"
)

// read-local: two clients share one opened dataset (raw codec, 16 files)
// whose file cache has fewer slots than the dataset has files.
var readLocalWorkload = workload{
	name:    "read-local",
	primary: "box",
	clients: readClients,
	setup:   setupReadLocal,
}

// localTarget queries one dataset shared by every client.
type localTarget struct{ ds *spio.Dataset }

func (t localTarget) box(_ *client, q spio.Box) (*spio.Buffer, spio.ReadStats, error) {
	return t.ds.QueryBox(q, spio.QueryOptions{Readers: readerCount})
}

func (t localTarget) knn(_ *client, p spio.Vec3, k int) (*spio.Buffer, []float64, spio.ReadStats, error) {
	return spio.KNN(t.ds, p, k)
}

func (t localTarget) stream(_ *client, q spio.Box) (levelStream, error) {
	entries := t.ds.Meta().FilesIntersecting(q)
	if len(entries) == 0 {
		return emptyStream{}, nil
	}
	p, err := t.ds.Progressive(entries, readerCount)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// emptyStream is the progressive read of a box no file intersects.
type emptyStream struct{}

func (emptyStream) NextLevel() (*spio.Buffer, bool, error) { return nil, false, nil }
func (emptyStream) Close() error                           { return nil }

type readLocalInst struct {
	readMix
	ds     *spio.Dataset
	openMs float64
}

func setupReadLocal(e env) (instance, error) {
	dir := filepath.Join(e.dataDir, "dataset")
	locals, err := writeReadDataset(dir, e.seed, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := spio.Open(dir)
	if err == nil {
		err = ds.SetFileCache(readFileSlots)
	}
	if err != nil {
		return nil, err
	}
	return &readLocalInst{
		readMix: readMix{
			target:  localTarget{ds},
			truth:   newTruth(locals),
			stride:  int64(ds.Meta().Schema.Stride()),
			boxSpan: "reader.query_box",
			knnSpan: "query.knn",
		},
		ds:     ds,
		openMs: float64(time.Since(t0)) / 1e6,
	}, nil
}

func (l *readLocalInst) snapshot() any { return l.ds.CacheStats() }

func (l *readLocalInst) report(*window, map[string]float64) {}

func (l *readLocalInst) layers(w *window, before, after any) map[string]float64 {
	m := l.readLayers(w)
	b, a := before.(spio.CacheStats), after.(spio.CacheStats)
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	m["reader.open_ms"] = l.openMs
	m["reader.file_cache_hit_ratio"] = hits / max(hits+misses, 1)
	m["reader.file_cache_evictions_per_op"] = float64(a.Evictions-b.Evictions) / float64(max(len(w.recs), 1))
	return m
}

func (l *readLocalInst) close() error { return l.ds.Close() }
