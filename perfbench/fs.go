package main

import (
	"os"

	"spio/internal/fault"
)

// pageCacheFS is the real filesystem with fsync made free, as it is on
// a memory-backed filesystem: every create, write, rename and remove
// still runs, but no call waits for the device. The benchmark may not
// write outside its checkout, which usually lives on a disk shared with
// whatever else the machine does; this keeps that disk's flush latency
// out of every figure, as a tmpfs data directory would. Every dataset
// the benchmark writes goes through it.
type pageCacheFS struct{}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

func (pageCacheFS) Create(path string) (fault.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (pageCacheFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (pageCacheFS) Remove(path string) error                     { return os.Remove(path) }
func (pageCacheFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (pageCacheFS) SyncDir(string) error                         { return nil }
