package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the machine and source a result was measured
// on. Results with different machine fields are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the checked-out commit when the tree is a git work
	// tree, else "none"; Source digests the Go sources either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
	// Calibration is the score of a fixed integer loop, in millions of
	// iterations per second: it shows how fast this machine was while
	// the result was taken.
	Calibration float64 `json:"calibration_mops"`
}

// sameMachine reports whether two fingerprints allow a verdict.
func (f fingerprint) sameMachine(o fingerprint) bool {
	return f.CPU == o.CPU && f.NumCPU == o.NumCPU && f.GOMAXPROCS == o.GOMAXPROCS && f.GoVersion == o.GoVersion
}

func takeFingerprint(root string) fingerprint {
	return fingerprint{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(root), Source: sourceDigest(root),
		Calibration: calibrate(),
	}
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit resolves .git/HEAD through one loose ref.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes go.mod and every .go file outside hidden
// directories, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrate runs a fixed xorshift-multiply loop three times and
// returns the median rate in millions of iterations per second.
func calibrate() float64 {
	const iters = 20_000_000
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		x, acc := uint64(88172645463325252), uint64(0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0x9e3779b97f4a7c15
		}
		calibrationSink = acc
		rates = append(rates, iters/time.Since(start).Seconds()/1e6)
	}
	return median(rates)
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64
