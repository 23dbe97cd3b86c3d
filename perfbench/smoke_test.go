package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// their output against BENCHMARK.json (about three minutes).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes minutes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSmoke(root, testWriter{t}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, buildDir, "data", lintWorkload.name)); !os.IsNotExist(err) {
		t.Errorf("lint-module run left its data behind (stat: %v)", err)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
