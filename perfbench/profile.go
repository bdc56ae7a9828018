package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the self-time buckets of the traced run's CPU profile,
// for layers with no public boundary the benchmark can span. Each
// function's flat time goes to the first bucket whose package prefix
// matches; cpu.codec is the codec's root package and whatever codec
// subpackage is not listed.
var cpuLayers = []struct{ metric, pkg string }{
	{"cpu.codec.motion", "openvcu/internal/codec/motion"},
	{"cpu.codec.transform", "openvcu/internal/codec/transform"},
	{"cpu.codec.entropy", "openvcu/internal/codec/entropy"},
	{"cpu.codec.filter", "openvcu/internal/codec/filter"},
	{"cpu.codec.predict", "openvcu/internal/codec/predict"},
	{"cpu.codec.rc", "openvcu/internal/codec/rc"},
	{"cpu.codec", "openvcu/internal/codec"},
	{"cpu.bits", "openvcu/internal/bits"},
	{"cpu.video", "openvcu/internal/video"},
	{"cpu.container", "openvcu/internal/container"},
	{"cpu.cluster", "openvcu/internal/cluster"},
	{"cpu.sched", "openvcu/internal/sched"},
	{"cpu.sim", "openvcu/internal/sim"},
	{"cpu.vcu", "openvcu/internal/vcu"},
}

// mallocFuncs and gcFuncs classify runtime functions by lower-case
// name fragment, allocation first: the allocator's own heap-bitmap
// writes are allocation cost, the write barrier and marking are GC.
var (
	mallocFuncs = []string{"malloc", "newobject", "makeslice", "growslice", "nextfree", "mcache",
		"mcentral", "mheap", "allocspan", "memclrnoheappointers", "newarray", "refill", "writeheapbits"}
	gcFuncs = []string{"gc", "scanobject", "scanblock", "greyobject", "markbits", "findobject",
		"sweep", "wbbuf", "heapbits", "typepointers", "spanof", "markroot", "scanstack", "scanframe",
		"(*mspan).base"}
)

// cpuMetricNames lists every cpu.* metric in report order.
func cpuMetricNames() []string {
	var out []string
	for _, l := range cpuLayers {
		out = append(out, l.metric)
	}
	return append(out, "cpu.runtime.gc", "cpu.runtime.malloc", "cpu.other")
}

// classify returns the cpu.* bucket for a function symbol.
func classify(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	for _, l := range cpuLayers {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.metric
		}
	}
	// Symbols without a package are the runtime's assembly routines.
	if pkg == "runtime" || !strings.Contains(fn, ".") {
		name := strings.ToLower(strings.TrimPrefix(fn, "runtime."))
		for _, f := range mallocFuncs {
			if strings.Contains(name, f) {
				return "cpu.runtime.malloc"
			}
		}
		for _, f := range gcFuncs {
			if strings.Contains(name, f) {
				return "cpu.runtime.gc"
			}
		}
	}
	return "cpu.other"
}

// cpuShares attributes a CPU profile with the toolchain's offline
// `go tool pprof -top` and returns each bucket's share of the flat
// time.
func cpuShares(binary, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", binary, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop sums the flat column of `pprof -top` output per bucket.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		name := strings.Join(fields[5:], " ")
		flat[classify(name)] += d
		total += d
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no table:\n%s", out)
	}
	shares := map[string]float64{}
	for _, m := range cpuMetricNames() {
		if total > 0 {
			shares[m] = flat[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// parseDuration reads pprof's flat column ("1.20s", "10ms", "0").
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
