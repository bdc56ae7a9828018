// Command perfbench is the repository's benchmark: four workloads that
// drive the transcode path (video, codec, transcode, container) and the
// control plane (workload, cluster, sim, sched, vcu) from outside
// through their public functions, check every output, and report
// end-to-end metrics (untraced) or per-layer metrics (traced).
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload vod-mot-ladder --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The run also appends a
// record with the machine fingerprint to .bench_build/results.jsonl,
// which compare reads, and a traced run writes its spans and counts to
// .bench_build/trace/. A run whose outputs fail any check exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with what compare needs to pair and judge it.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	result
}

// endToEnd are the untraced metrics, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"out_mpix_per_s", "Mpix/s"},
	{"steps_per_s", "1/s"},
	{"item_ms_p50", "ms"},
	{"item_ms_tail", "ms"},
	{"heap_peak_mb", "MB"},
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 for the traced per-layer run")
	out := fl.String("out", ".bench_build", "directory for records, traces and profiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findScenario(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rec, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A run whose checks failed may have nothing to take a median of;
	// its result still prints, with such metrics at 0.
	for n, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.Metrics[n] = metric{0, m.Unit}
		}
	}
	if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var s string
	for i, w := range scenarios {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runPhase repeats the workload's pass until budget has elapsed, at
// least once, sampling each pass's peak live heap.
func runPhase(w scenario, seed uint64, budget time.Duration, tr *tracer) []passResult {
	var passes []passResult
	deadline := time.Now().Add(budget)
	for len(passes) == 0 || time.Now().Before(deadline) {
		stop := make(chan struct{})
		sampled := make(chan float64)
		go sampleHeap(stop, sampled)
		tr.beginRun()
		p := w.pass(seed, tr)
		close(stop)
		p.heapPeak = <-sampled
		passes = append(passes, p)
	}
	return passes
}

// sampleHeap tracks the peak live heap — the bytes the last completed
// GC cycle marked reachable — until stop closes, then sends it. Unlike
// the allocated heap it does not depend on where between collections a
// sample lands.
func sampleHeap(stop <-chan struct{}, peak chan<- float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var max float64
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := float64(s[0].Value.Uint64()); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}

// verify checks every pass's outputs and its repeat of ref's digest and
// Stats. It returns the operations attempted and the failures, with a
// message per failure.
func verify(passes []passResult, ref passResult) (attempted int, failures []string) {
	for i, p := range passes {
		attempted += p.ops
		failures = append(failures, p.errs...)
		if p.digest != ref.digest {
			failures = append(failures, fmt.Sprintf("pass %d: output digest %s differs from %s", i, p.digest, ref.digest))
		}
		if (p.stats == nil) != (ref.stats == nil) {
			failures = append(failures, fmt.Sprintf("pass %d: simulated stats missing", i))
		} else if p.stats != nil {
			if err := checkSameStats(*ref.stats, *p.stats); err != nil {
				failures = append(failures, fmt.Sprintf("pass %d: %v", i, err))
			}
		}
	}
	return attempted, failures
}

func measure(w scenario, seed uint64, budget time.Duration, traced bool, out string) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Trace: traced}
	root, err := os.Getwd()
	if err != nil {
		return rec, err
	}
	rec.Fingerprint = takeFingerprint(root)
	fmt.Printf("workload %s seed %d (%s)\n", w.name, seed, w.loop)
	fmt.Printf("machine %+v\n", rec.Fingerprint)

	plain := budget
	if traced {
		plain = budget / 2
	}
	base := runPhase(w, seed, plain, nil)
	attempted, failures := verify(base, base[0])

	var tr *tracer
	var tracedPh []passResult
	var mem [2]runtime.MemStats
	var shares map[string]float64
	if traced {
		tr = newTracer()
		prof := filepath.Join(out, "cpu-"+w.name+".pprof")
		f, err := os.Create(prof)
		if err != nil {
			return rec, err
		}
		runtime.ReadMemStats(&mem[0])
		if err := pprof.StartCPUProfile(f); err != nil {
			return rec, errors.Join(err, f.Close())
		}
		tracedPh = runPhase(w, seed, budget-plain, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&mem[1])
		if err := f.Close(); err != nil {
			return rec, err
		}
		a, fs := verify(tracedPh, base[0])
		attempted += a
		failures = append(failures, fs...)
		if err := tr.write(filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))); err != nil {
			return rec, err
		}
		exe, err := os.Executable()
		if err != nil {
			return rec, err
		}
		if shares, err = cpuShares(exe, prof); err != nil {
			return rec, err
		}
	}
	for _, f := range failures {
		fmt.Println("FAIL", f)
	}
	rec.Attempted = attempted
	rec.Failed = len(failures)
	rec.Correct = len(failures) == 0

	e2e := endToEndMetrics(base)
	fmt.Printf("passes %d, items %d, error_frac %.4f (%d of %d operations)\n",
		len(base), len(e2e.items), float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
	fmt.Printf("item_ms_tail is p%g with %d samples beyond it\n", e2e.tailPct, e2e.tailBeyond)
	fmt.Printf("pass wall_s %.4g\n", walls(base))
	if !traced {
		rec.Metrics = e2e.metrics
	} else {
		rec.Metrics = layerMetrics(base, tracedPh, tr, mem, shares)
		rec.Metrics["bench.error_frac"] = metric{float64(rec.Failed) / float64(rec.Attempted), "frac"}
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	return rec, nil
}

// e2eReport is the untraced passes' end-to-end figures.
type e2eReport struct {
	metrics    map[string]metric
	items      []float64
	tailPct    float64
	tailBeyond int
}

func walls(ps []passResult) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall.Seconds())
	}
	return out
}

func endToEndMetrics(passes []passResult) e2eReport {
	var rep e2eReport
	var setups, pix, steps, heap []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		heap = append(heap, p.heapPeak/(1<<20))
		pix = append(pix, p.outPix/1e6/p.wall.Seconds())
		steps = append(steps, p.steps/p.wall.Seconds())
		rep.items = append(rep.items, millis(p.items)...)
	}
	var tailMS float64
	rep.tailPct, tailMS, rep.tailBeyond = tail(rep.items)
	values := map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls(passes)),
		"out_mpix_per_s": median(pix),
		"steps_per_s":    median(steps),
		"item_ms_p50":    median(rep.items),
		"item_ms_tail":   tailMS,
		"heap_peak_mb":   median(heap),
	}
	rep.metrics = map[string]metric{}
	for _, m := range endToEnd {
		rep.metrics[m.name] = metric{values[m.name], m.unit}
	}
	return rep
}

// outcomeNames are the deterministic results a workload reports; a
// workload where one does not apply reports 0.
var outcomeNames = []struct{ name, unit string }{
	{"psnr_db", "dB"},
	{"bits_per_pixel", "bit/pix"},
	{"live_slo", "frac"},
	{"goodput_per_h", "1/h"},
	{"escapes", "count"},
}

// spanMetrics are the per-layer span totals, in seconds per pass.
var spanMetrics = []string{
	"video.source", "video.psnr", "transcode.chunked",
	"codec.new_encoder", "codec.encode", "codec.flush", "codec.decode",
	"container.mux", "container.demux", "workload.gen", "cluster.submit", "sim.run",
}

// countMetrics are per-layer counts per pass, with their units.
var countMetrics = []struct{ name, unit string }{
	{"transcode.chunks", "count"},
	{"transcode.decoded_mpix", "Mpix"},
	{"transcode.scaled_mpix", "Mpix"},
	{"codec.encode_calls", "count"},
	{"codec.packets", "count"},
	{"container.bytes", "bytes"},
	{"workload.arrivals", "count"},
	{"cluster.submits", "count"},
}

// fleetMetrics are the per-layer figures a fleet pass reads from the
// cluster, its samples and its VCUs.
var fleetMetrics = []struct{ name, unit string }{
	{"sim.simulated_s", "s"},
	{"cluster.queue_len_p50", "count"},
	{"cluster.queue_len_max", "count"},
	{"cluster.backlog_max", "count"},
	{"sim.pending_max", "count"},
	{"cluster.steps_completed", "count"},
	{"cluster.steps_failed", "count"},
	{"cluster.retries", "count"},
	{"cluster.hedges_launched", "count"},
	{"cluster.watchdog_fires", "count"},
	{"cluster.graphs_shed", "count"},
	{"cluster.queue_high_water", "count"},
	{"cluster.degraded", "count"},
	{"cluster.autoscale_resizes", "count"},
	{"cluster.audit.audited", "count"},
	{"cluster.audit.failures", "count"},
	{"cluster.audit.recalled", "count"},
	{"cluster.audit.convictions", "count"},
	{"cluster.useful_frac", "frac"},
	{"cluster.hedge_win_frac", "frac"},
	{"cluster.audit.hit_frac", "frac"},
	{"vcu.ops_completed", "count"},
	{"vcu.ops_failed", "count"},
	{"vcu.encoder_util_mean", "frac"},
	{"vcu.decoder_util_mean", "frac"},
}

// layerMetrics turns the traced passes into the per-layer report, with
// the tracing overhead against the untraced base passes and the base's
// deterministic outcomes. bench.error_frac is added by the caller.
func layerMetrics(base, traced []passResult, tr *tracer, mem [2]runtime.MemStats, shares map[string]float64) map[string]metric {
	n := float64(len(traced))
	out := map[string]metric{
		"trace.overhead_s": {median(walls(traced)) - median(walls(base)), "s"},
	}
	for _, o := range outcomeNames {
		out["outcome."+o.name] = metric{base[0].outcome[o.name], o.unit}
	}
	for _, s := range spanMetrics {
		out[s+"_s"] = metric{tr.spanSeconds(s) / n, "s"}
	}
	for _, c := range countMetrics {
		out[c.name] = metric{tr.counts[c.name] / n, c.unit}
	}
	out["codec.decode_mpix_per_s"] = metric{rate(tr.counts["codec.decoded_mpix"], tr.spanSeconds("codec.decode")), "Mpix/s"}
	out["container.mux_mb_per_s"] = metric{rate(tr.counts["container.bytes"]/1e6, tr.spanSeconds("container.mux")), "MB/s"}
	for _, f := range fleetMetrics {
		var sum float64
		for _, p := range traced {
			sum += p.layer[f.name]
		}
		out[f.name] = metric{sum / n, f.unit}
	}
	out["runtime.alloc_mb"] = metric{float64(mem[1].TotalAlloc-mem[0].TotalAlloc) / (1 << 20) / n, "MB"}
	out["runtime.mallocs"] = metric{float64(mem[1].Mallocs-mem[0].Mallocs) / n, "count"}
	out["runtime.gc_cycles"] = metric{float64(mem[1].NumGC-mem[0].NumGC) / n, "count"}
	out["runtime.gc_pause_ms"] = metric{float64(mem[1].PauseTotalNs-mem[0].PauseTotalNs) / 1e6 / n, "ms"}
	for _, name := range cpuMetricNames() {
		out[name] = metric{shares[name], "frac"}
	}
	return out
}

func rate(work, seconds float64) float64 {
	if seconds <= 0 || math.IsNaN(seconds) {
		return 0
	}
	return work / seconds
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
