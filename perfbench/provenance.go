package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance is what a reader needs to compare two runs: where the data
// lived, what the machine offered, and which code ran.
type provenance struct {
	DataFS     string `json:"data_fs"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func collectProvenance(root, dataDir string) provenance {
	return provenance{
		DataFS:     fsType(dataDir),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// gitCommit returns HEAD of the checkout, or "none" when root is not a
// git work tree (the source hash still identifies the code).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every regular file of the checkout except build
// output, in path order.
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == buildDir) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// residentBytes returns the process's current resident set, 0 if
// /proc cannot tell.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuSteal returns the machine's stolen and total CPU time in clock
// ticks, from the first line of /proc/stat; zeros if it cannot tell.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
