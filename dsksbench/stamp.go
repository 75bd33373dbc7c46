package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// printStamp prints what the numbers depend on.
func printStamp(wl *workload, seed, dataSeed int64, dur time.Duration, traced bool) {
	oracle := "off"
	if wl.landmarks > 0 {
		oracle = fmt.Sprintf("on, %d landmarks", wl.landmarks)
	}
	stamp := map[string]any{
		"workload": wl.name, "seed": seed, "dataSeed": dataSeed, "seconds": dur.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gcPercent, "cpu": cpuModel(),
		"go": runtime.Version(), "commit": commit(), "source": sourceDigest(),
		"preset": wl.preset, "scale": wl.scale, "shards": wl.shards, "index": "SIF",
		"bufferFraction": wl.buffer, "ioLatency": "0", "oracle": oracle,
		"cacheSize": wl.cacheSize, "wal": wl.wal, "clients": conns(),
	}
	b, _ := json.Marshal(stamp)
	fmt.Println("stamp", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository stamps the source digest only.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes the Go sources and module files of the checkout,
// which identifies the code under test where no commit ID is available.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
