package main

import (
	"math/rand"
	"testing"

	"spio"
)

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("pct(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := newDist(nil).pct(50); got != 0 {
		t.Errorf("pct of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestSamplesBeyondPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := newDist(xs)
	// Rank of p95 in 200 samples is 190: ten samples lie beyond it.
	if got := d.beyond(95); got != 10 {
		t.Errorf("beyond(95) of 200 = %d, want 10", got)
	}
	if !d.resolved(95) {
		t.Errorf("p95 of 200 samples should be resolved")
	}
	// 100 samples leave 5 beyond p95: too few for a tail estimate.
	d = newDist(xs[:100])
	if got := d.beyond(95); got != 5 {
		t.Errorf("beyond(95) of 100 = %d, want 5", got)
	}
	if d.resolved(95) {
		t.Errorf("p95 of 100 samples should not be resolved")
	}
	if got := newDist([]float64{7}).beyond(95); got != 0 {
		t.Errorf("beyond(95) of one sample = %d, want 0", got)
	}
}

// TestTruthMatchesScan checks the cell-bucketed reference answers
// against a plain scan of the same particles.
func TestTruthMatchesScan(t *testing.T) {
	b := spio.Clustered(spio.UintahSchema(), spio.UnitBox(), 5000, 3, 7, 0)
	tr := newTruth([]*spio.Buffer{b})
	if tr.all != fpOf(b, nil) {
		t.Fatalf("truth holds %+v, buffer %+v", tr.all, fpOf(b, nil))
	}
	c := &client{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 200; i++ {
		q := queryBox(c, i)
		if got, want := tr.box(q), fpOf(b, &q); got != want {
			t.Fatalf("box %v: truth %+v, scan %+v", q, got, want)
		}
		if !spio.UnitBox().ContainsBox(q) {
			t.Fatalf("query box %v leaves the domain", q)
		}
	}
}
