package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/container"
	"openvcu/internal/video"
)

// heldOutSeed is a seed no workload was tuned on.
const heldOutSeed = 7919

// smallStream encodes a short clip and returns its frames, packets and
// stream header.
func smallStream(t *testing.T) ([]*video.Frame, []codec.Packet, container.StreamInfo) {
	t.Helper()
	const w, h, n = 64, 48, 6
	frames := clip(3, w, h, n, nil)
	enc, err := codec.NewEncoder(codec.Config{Profile: codec.VP9Class, Width: w, Height: h, FPS: 30,
		GOPLength: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	var pkts []codec.Packet
	for _, f := range frames {
		p, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p...)
	}
	p, err := enc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, p...)
	return frames, pkts, container.StreamInfo{Profile: codec.VP9Class, Width: w, Height: h, FPS: 30, FrameCount: n}
}

// readBack is the vod-mot-ladder read path and its checks: demux,
// round trip against the packets written, decode.
func readBack(data []byte, info container.StreamInfo, written []codec.Packet) ([]*video.Frame, error) {
	pkts, err := demux(data, info)
	if err != nil {
		return nil, err
	}
	if err := checkRoundTrip(data, info, pkts, written); err != nil {
		return nil, err
	}
	return decodeShown(pkts, info.FrameCount, info.Width, info.Height)
}

func TestStreamChecksPassIntactOutput(t *testing.T) {
	frames, pkts, info := smallStream(t)
	data, err := mux(info, pkts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := readBack(data, info, pkts)
	if err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
	if _, err := checkPSNR(frames, dec, 25); err != nil {
		t.Fatalf("intact stream below the floor: %v", err)
	}
}

// TestChecksCatchFlippedByte flips one byte at a time across the whole
// muxed stream; every flip must be reported.
func TestChecksCatchFlippedByte(t *testing.T) {
	_, pkts, info := smallStream(t)
	data, err := mux(info, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for off := range data {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := readBack(bad, info, pkts); err == nil {
			t.Errorf("flipped byte at offset %d of %d not caught", off, len(data))
		}
	}
}

func TestChecksCatchMissingShownFrame(t *testing.T) {
	_, pkts, info := smallStream(t)
	for drop := range pkts {
		if !pkts[drop].Show {
			continue
		}
		short := append(append([]codec.Packet(nil), pkts[:drop]...), pkts[drop+1:]...)
		data, err := mux(info, short)
		if err != nil {
			continue // refused at mux: caught
		}
		// The stream is self-consistent — it is what was written — so
		// only the shown-frame count can catch the gap.
		if _, err := readBack(data, info, short); err == nil {
			t.Errorf("stream without shown packet %d not caught", drop)
		}
	}
}

func TestChecksCatchLowPSNR(t *testing.T) {
	frames, pkts, info := smallStream(t)
	data, err := mux(info, pkts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := readBack(data, info, pkts)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]*video.Frame(nil), dec...)
	bad[2] = dec[2].Clone()
	for i := range bad[2].Y {
		bad[2].Y[i] = 255 - bad[2].Y[i]
	}
	if psnr, err := checkPSNR(frames, bad, 25); err == nil {
		t.Fatalf("inverted frame passed the floor at %.2f dB", psnr)
	}
}

// smallSpike is a cheap fleet-spike run for the simulation checks.
func smallSpike(seed uint64) passResult {
	return spikePass(seed, nil, spikeConfig{ratePerHour: 400, faults: 3, horizon: time.Hour})
}

func TestChecksCatchPerturbedStats(t *testing.T) {
	a, b := smallSpike(5), smallSpike(5)
	if _, fails := verify([]passResult{a, b}, a); len(fails) != 0 {
		t.Fatalf("two runs of one seed disagree: %v", fails)
	}
	st := *b.stats
	st.Retries++
	b.stats = &st
	if _, fails := verify([]passResult{a, b}, a); len(fails) != 1 {
		t.Fatalf("perturbed Stats field: %d failures, want 1: %v", len(fails), fails)
	}
	b = smallSpike(5)
	b.digest = "00"
	if _, fails := verify([]passResult{a, b}, a); len(fails) != 1 {
		t.Fatalf("changed digest: %d failures, want 1", len(fails))
	}
}

func TestChecksCatchBrokenConservation(t *testing.T) {
	f := spikeFleet(5, spikeConfig{ratePerHour: 400, faults: 3, horizon: time.Hour}, nil)
	var r passResult
	f.run(&r, nil)
	if len(r.errs) != 0 {
		t.Fatalf("intact run failed its checks: %v", r.errs)
	}
	st, c := f.c.Stats, census(f.graphs)
	if err := checkConservation(st, c); err != nil {
		t.Fatal(err)
	}
	for p := range st.Classes {
		if st.Classes[p].Admitted == 0 {
			continue
		}
		cs := st.Classes[p]
		lo := c.done[p] + c.flight[p] + cs.DeadlineMissed
		hi := lo + c.pending[p] + cs.Shed
		for name, broken := range map[string]func(s *cluster.Stats){
			"admitted below the resolved steps": func(s *cluster.Stats) { s.Classes[p].Admitted = lo - 1 },
			"admitted above every step":         func(s *cluster.Stats) { s.Classes[p].Admitted = hi + 1 },
			"shed off by one":                   func(s *cluster.Stats) { s.Classes[p].Shed++ },
			"deadline-missed off by one":        func(s *cluster.Stats) { s.Classes[p].DeadlineMissed++ },
			"completed below the done steps":    func(s *cluster.Stats) { s.Classes[p].Completed = c.done[p] - 1 },
		} {
			bad := st
			broken(&bad)
			if err := checkConservation(bad, c); err == nil {
				t.Errorf("class %d: %s not caught", p, name)
			}
		}
	}
}

// goldenOutcomes pins each workload's deterministic results per seed:
// a change to performance or structure must leave them where they are.
var goldenOutcomes = map[string]map[uint64]map[string]float64{
	"vod-mot-ladder": {
		1:           {"bits_per_pixel": 0.02873147349837829, "psnr_db": 31.002799562290257},
		heldOutSeed: {"bits_per_pixel": 0.028880301350741062, "psnr_db": 30.710060755321813},
	},
	"live-h264": {
		1:           {"bits_per_pixel": 0.11099001736111111, "psnr_db": 43.13126438758195},
		heldOutSeed: {"bits_per_pixel": 0.11106901041666667, "psnr_db": 43.260035527918504},
	},
	"fleet-spike": {
		1:           {"escapes": 0, "goodput_per_h": 1386, "live_slo": 0.9810642377756472},
		heldOutSeed: {"escapes": 0, "goodput_per_h": 1378, "live_slo": 0.9810642377756472},
	},
	"fleet-audit-realpixels": {
		1:           {"escapes": 7, "goodput_per_h": 25, "live_slo": 1},
		heldOutSeed: {"escapes": 7, "goodput_per_h": 25, "live_slo": 1},
	},
}

// TestWorkloadsPassOnTwoSeeds runs every workload at its benchmark size
// on the default seed and a held-out one, untraced and then traced:
// every check must pass, the traced pass must reproduce the untraced
// digest and Stats, and the outcomes must match goldenOutcomes.
func TestWorkloadsPassOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range scenarios {
		for _, seed := range []uint64{1, heldOutSeed} {
			plain := w.pass(seed, nil)
			tr := newTracer()
			tr.beginRun()
			traced := w.pass(seed, tr)
			attempted, fails := verify([]passResult{plain, traced}, plain)
			if len(fails) != 0 || attempted == 0 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", w.name, seed, len(fails), attempted, fails)
			}
			if plain.wall <= 0 || plain.steps <= 0 || plain.outPix <= 0 || len(plain.items) == 0 {
				t.Errorf("%s seed %d: empty measurement %+v", w.name, seed, plain)
			}
			want := goldenOutcomes[w.name][seed]
			if len(want) != len(plain.outcome) {
				t.Errorf("%s seed %d: outcome %#v, golden %#v", w.name, seed, plain.outcome, want)
			}
			for k, v := range want {
				if got := plain.outcome[k]; math.Abs(got-v) > 1e-6*math.Abs(v) {
					t.Errorf("%s seed %d: %s = %v, golden %v", w.name, seed, k, got, v)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesReport requires BENCHMARK.json to name
// exactly the workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range scenarios {
		want = append(want, w.name)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, benchmark has %v", got, want)
	}

	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	same := func(kind string, declared map[string]string, reported map[string]metric) {
		for n, m := range reported {
			if u, ok := declared[n]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) declared as %q", kind, n, m.Unit, u)
			}
		}
		for n := range declared {
			if _, ok := reported[n]; !ok {
				t.Errorf("%s metric %s declared but not reported", kind, n)
			}
		}
	}
	one := passResult{wall: time.Second, setup: time.Second, items: []time.Duration{time.Millisecond}, steps: 1, outPix: 1}
	passes := []passResult{one}
	same("end-to-end", units(b.EndToEnd), endToEndMetrics(passes).metrics)
	layer := layerMetrics(passes, passes, newTracer(), [2]runtime.MemStats{}, map[string]float64{})
	layer["bench.error_frac"] = metric{0, "frac"}
	same("per-layer", units(b.PerLayer), layer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three %v %v %v", q1, q2, q3)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	pct, v, beyond := tail(xs)
	if pct != 95 || v != 190 || beyond != 10 {
		t.Fatalf("tail of 200: p%g = %g with %d beyond", pct, v, beyond)
	}
	if pct, _, _ := tail(xs[:15]); pct != 50 {
		t.Fatalf("tail of 15 samples is p%g, want the p50 stand-in", pct)
	}
}

func TestVerdict(t *testing.T) {
	base := make([]float64, 10)
	for i := range base {
		base[i] = 100 + float64(i%3)
	}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	lower := judged{name: "wall_s", bound: 0.1}
	higher := judged{name: "steps_per_s", higher: true, bound: 0.1}
	cases := []struct {
		m    judged
		b    []float64
		same bool
		want string
	}{
		{lower, shift(-20), true, "improved"},
		{lower, shift(20), true, "regressed"},
		{higher, shift(20), true, "improved"},
		{lower, base, true, "unchanged"},
		{lower, shift(-20), false, "report only (machines differ)"},
		{lower, shift(-20)[:5], true, "unresolved (fewer than 10 pairs)"},
	}
	for _, c := range cases {
		a := base[:len(c.b)]
		if got := verdict(c.m, a, c.b, c.same); got != c.want {
			t.Errorf("%s shifted to %v: %q, want %q", c.m.name, c.b, got, c.want)
		}
	}
}

func TestParseTopBucketsByPackage(t *testing.T) {
	out := []byte(`File: perfbench
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.40s 40.00% 40.00%      0.40s 40.00%  openvcu/internal/codec/motion.sampleSharp
     0.20s 20.00% 60.00%      0.20s 20.00%  openvcu/internal/codec.(*encFrame).encodeBlock
     0.10s 10.00% 70.00%      0.10s 10.00%  runtime.scanobject
     0.10s 10.00% 80.00%      0.10s 10.00%  runtime.mallocgc
     0.10s 10.00% 90.00%      0.10s 10.00%  openvcu/internal/sched.(*Worker).tryReserve
      50ms  5.00% 95.00%       50ms  5.00%  gcWriteBarrier
      50ms  5.00%   100%       50ms  5.00%  sort.Slice
`)
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.codec.motion": 0.4, "cpu.codec": 0.2, "cpu.runtime.gc": 0.15,
		"cpu.runtime.malloc": 0.1, "cpu.sched": 0.1, "cpu.other": 0.05}
	names := cpuMetricNames()
	sort.Strings(names)
	for _, n := range names {
		if math.Abs(shares[n]-want[n]) > 1e-9 {
			t.Errorf("%s = %g, want %g", n, shares[n], want[n])
		}
	}
}
