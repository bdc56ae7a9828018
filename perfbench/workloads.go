package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/codec/rc"
	"openvcu/internal/container"
	"openvcu/internal/sched"
	"openvcu/internal/transcode"
	"openvcu/internal/vcu"
	"openvcu/internal/video"
	"openvcu/internal/workload"
)

// passResult is what one pass of a workload measured and checked. A
// pass is the workload's fixed unit of work: set-up, then the timed
// section, then the output checks.
type passResult struct {
	setup time.Duration // input synthesis and cluster build
	wall  time.Duration // the timed section
	// items are the per-item latencies inside the timed section: one
	// encode call, one chunk transcode, or one simulated step (the
	// wall time of a block of simulated steps over its size).
	items  []time.Duration
	steps  float64 // items resolved: frames, chunks or simulated steps
	outPix float64 // output pixels produced in the timed section
	// digest covers every output byte; stats is the simulated outcome.
	// Both must repeat exactly across passes of one seed.
	digest string
	stats  *cluster.Stats
	ops    int      // the benchmark's own operations attempted
	errs   []string // operations that errored or failed a check
	// outcome holds deterministic results (quality, simulated
	// outcomes); layer holds per-pass counts for the traced report.
	outcome map[string]float64
	layer   map[string]float64
	// heapPeak is the pass's peak live heap in bytes, sampled by the
	// runner.
	heapPeak float64
}

func (r *passResult) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// scenario is one benchmark workload: an input set and its pass.
type scenario struct {
	name string
	loop string // closed or open loop, with its client count or rate
	pass func(seed uint64, tr *tracer) passResult
}

var scenarios = []scenario{
	{
		name: "vod-mot-ladder",
		loop: "closed loop, 1 chunk worker, encoder Workers 1",
		pass: func(seed uint64, tr *tracer) passResult { return vodPass(seed, tr) },
	},
	{
		name: "live-h264",
		loop: "closed loop, 1 client submitting one frame after the previous returns",
		pass: func(seed uint64, tr *tracer) passResult { return livePass(seed, tr) },
	},
	{
		name: "fleet-spike",
		loop: "open loop inside the simulation (arrival trace); closed loop on the host, one simulation at a time",
		pass: func(seed uint64, tr *tracer) passResult { return spikePass(seed, tr, defaultSpike) },
	},
	{
		name: "fleet-audit-realpixels",
		loop: "open loop inside the simulation (bursts of 10 videos); closed loop on the host, one simulation at a time",
		pass: func(seed uint64, tr *tracer) passResult { return auditPass(seed, tr) },
	},
}

func findScenario(name string) (scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

// sceneSeed fixes the procedural scene every workload's clip is cut
// from.
const sceneSeed = 0x5eed

// clip renders frames of the benchmark's procedural scene from a
// seed-chosen instant on. Every seed sees the same texture statistics
// and object set at another pan position and object placement, so the
// seed varies the input without varying how hard it is to encode.
func clip(seed uint64, w, h, frames int, tr *tracer) []*video.Frame {
	sp := tr.begin("video.source")
	defer tr.end(sp)
	src := video.NewSource(video.SourceConfig{
		Name: "perfbench", Width: w, Height: h, FPS: 30, Seed: sceneSeed,
		Detail: 0.3, Motion: 1.5, ObjectMotion: 3, Objects: 3, Noise: 1,
	})
	start := int(seed%10007) * 3
	out := make([]*video.Frame, frames)
	for i := range out {
		out[i] = src.Frame(start + i)
	}
	return out
}

// --- vod-mot-ladder ---------------------------------------------------------

// A vod-mot-ladder pass is two closed GOPs of a keyframe and an inter
// frame each, through four rungs: near six seconds on one core.
const (
	vodChunks, vodChunkFrames = 2, 2
	vodBitsPerPixel           = 0.15
	vodPSNRFloor              = 15
)

func vodPass(seed uint64, tr *tracer) passResult {
	var r passResult
	const fps = 30
	in := video.Res480p
	t0 := time.Now()
	frames := clip(seed, in.Width, in.Height, vodChunks*vodChunkFrames, tr)
	chunks := transcode.SplitChunks(frames, vodChunkFrames)
	specs := transcode.LadderSpecs(in, codec.VP9Class, vodBitsPerPixel, fps, true)
	for i := range specs {
		specs[i].Workers = 1
	}
	r.setup = time.Since(t0)

	// One chunk worker: each chunk goes through the ladder after the
	// previous one returns.
	start := time.Now()
	pass := tr.begin("pass")
	outs := make([]transcode.Output, len(specs))
	for i := range chunks {
		sp := tr.begin("transcode.chunked")
		t := time.Now()
		res, err := transcode.Chunked(chunks[i:i+1], fps, specs, 1)
		r.items = append(r.items, time.Since(t))
		tr.end(sp)
		r.ops++
		if err != nil {
			r.fail("chunk %d: %v", i, err)
			tr.end(pass)
			r.wall = time.Since(start)
			return r
		}
		for si, o := range res.Outputs {
			outs[si].Spec = o.Spec
			outs[si].Packets = append(outs[si].Packets, o.Packets...)
			outs[si].TotalBits += o.TotalBits
			outs[si].OutputPixels += o.OutputPixels
		}
		for _, cr := range res.ChunkResults {
			tr.count("transcode.decoded_mpix", float64(cr.DecodedPixels)/1e6)
			tr.count("transcode.scaled_mpix", float64(cr.ScaledPixels)/1e6)
		}
	}
	tr.count("transcode.chunks", float64(len(chunks)))

	h := sha256.New()
	muxed := make([][]byte, len(outs))
	demuxed := make([][]codec.Packet, len(outs))
	decoded := make([][]*video.Frame, len(outs))
	var bits, pix float64
	for si, o := range outs {
		res := o.Spec.Resolution
		info := container.StreamInfo{Profile: o.Spec.Profile, Width: res.Width, Height: res.Height,
			FPS: fps, FrameCount: len(frames)}
		sp := tr.begin("container.mux")
		data, err := mux(info, o.Packets)
		tr.end(sp)
		r.ops++
		if err != nil {
			r.fail("%s: %v", o.Spec.Name, err)
			continue
		}
		h.Write(data)
		muxed[si] = data
		tr.count("container.bytes", float64(len(data)))
		tr.count("codec.packets", float64(len(o.Packets)))
		sp = tr.begin("container.demux")
		demuxed[si], err = demux(data, info)
		tr.end(sp)
		r.ops++
		if err != nil {
			r.fail("%s: %v", o.Spec.Name, err)
			continue
		}
		sp = tr.begin("codec.decode")
		decoded[si], err = decodeShown(demuxed[si], len(frames), res.Width, res.Height)
		tr.end(sp)
		r.ops++
		if err != nil {
			r.fail("%s: %v", o.Spec.Name, err)
			continue
		}
		tr.count("codec.decoded_mpix", float64(len(frames)*res.Pixels())/1e6)
		bits += float64(o.TotalBits)
		pix += float64(o.OutputPixels)
	}
	tr.end(pass)
	r.wall = time.Since(start)
	r.steps = float64(len(chunks))
	r.outPix = pix
	r.digest = hex.EncodeToString(h.Sum(nil))

	var psnrSum float64
	for si, o := range outs {
		if decoded[si] == nil {
			continue
		}
		res := o.Spec.Resolution
		info := container.StreamInfo{Profile: o.Spec.Profile, Width: res.Width, Height: res.Height,
			FPS: fps, FrameCount: len(frames)}
		if err := checkRoundTrip(muxed[si], info, demuxed[si], o.Packets); err != nil {
			r.fail("%s: %v", o.Spec.Name, err)
		}
		sp := tr.begin("video.psnr")
		ref := make([]*video.Frame, len(frames))
		for i, f := range frames {
			ref[i] = video.ScaleTo(f, o.Spec.Resolution)
		}
		psnr, err := checkPSNR(ref, decoded[si], vodPSNRFloor)
		tr.end(sp)
		if err != nil {
			r.fail("%s: %v", o.Spec.Name, err)
		}
		psnrSum += psnr
	}
	r.outcome = map[string]float64{
		"psnr_db":        psnrSum / float64(len(outs)),
		"bits_per_pixel": bits / pix,
	}
	return r
}

// --- live-h264 --------------------------------------------------------------

// A live-h264 pass is 80 frames of 360p, about six seconds: long
// enough that the per-frame median does not hang on which stretch of
// the scene a seed starts at.
const (
	liveFrames    = 80
	liveBitrate   = 800_000
	livePSNRFloor = 25
)

func livePass(seed uint64, tr *tracer) passResult {
	var r passResult
	in := video.Res360p
	t0 := time.Now()
	frames := clip(seed, in.Width, in.Height, liveFrames, tr)
	r.setup = time.Since(t0)

	start := time.Now()
	pass := tr.begin("pass")
	var pkts []codec.Packet
	sp := tr.begin("codec.new_encoder")
	enc, err := codec.NewEncoder(codec.Config{
		Profile: codec.H264Class, Width: in.Width, Height: in.Height, FPS: 30,
		RC:    rc.Config{Mode: rc.ModeOnePass, TargetBitrate: liveBitrate},
		Speed: 2, Workers: 1,
	})
	tr.end(sp)
	r.ops++
	if err != nil {
		tr.end(pass)
		r.fail("new encoder: %v", err)
		return r
	}
	for i, f := range frames {
		sp := tr.begin("codec.encode")
		t := time.Now()
		p, err := enc.Encode(f)
		r.items = append(r.items, time.Since(t))
		tr.end(sp)
		r.ops++
		if err != nil {
			r.fail("encode frame %d: %v", i, err)
			continue
		}
		pkts = append(pkts, p...)
	}
	sp = tr.begin("codec.flush")
	p, err := enc.Flush()
	tr.end(sp)
	r.ops++
	if err != nil {
		r.fail("flush: %v", err)
	}
	pkts = append(pkts, p...)
	if err := enc.Close(); err != nil {
		r.fail("close: %v", err)
	}
	tr.end(pass)
	r.wall = time.Since(start)
	tr.count("codec.encode_calls", float64(len(frames)))
	tr.count("codec.packets", float64(len(pkts)))
	r.steps = float64(len(frames))
	r.outPix = float64(len(frames) * in.Pixels())

	h := sha256.New()
	var bits int
	for _, p := range pkts {
		h.Write(p.Data)
		bits += p.Bits()
	}
	r.digest = hex.EncodeToString(h.Sum(nil))

	sp = tr.begin("codec.decode")
	decoded, err := decodeShown(pkts, len(frames), in.Width, in.Height)
	tr.end(sp)
	r.ops++
	if err != nil {
		r.fail("%v", err)
		return r
	}
	tr.count("codec.decoded_mpix", float64(len(frames)*in.Pixels())/1e6)
	sp = tr.begin("video.psnr")
	psnr, err := checkPSNR(frames, decoded, livePSNRFloor)
	tr.end(sp)
	if err != nil {
		r.fail("%v", err)
	}
	r.outcome = map[string]float64{"psnr_db": psnr, "bits_per_pixel": float64(bits) / r.outPix}
	return r
}

// --- fleet workloads --------------------------------------------------------

// fleet is one simulated park with its submitted graphs.
type fleet struct {
	c       *cluster.Cluster
	graphs  []*cluster.Graph
	done    int
	horizon time.Duration
}

// submitAt schedules a graph's submission on the sim clock, counting it
// and spanning the call when traced.
func (f *fleet) submitAt(at time.Duration, g *cluster.Graph, tr *tracer) {
	f.graphs = append(f.graphs, g)
	g.OnDone = func(*cluster.Graph) { f.done++ }
	f.c.Eng.Schedule(at, func() {
		sp := tr.begin("cluster.submit")
		f.c.Submit(g)
		tr.end(sp)
		tr.count("cluster.submits", 1)
	})
}

// blockSteps is how many resolved steps make one fleet item.
const blockSteps = 200

// run advances the simulation to its horizon in slices of simulated
// time. Each block of at least blockSteps resolved steps yields one
// item, its wall time per step, so items weigh busy and quiet stretches
// by the work they resolved. The queue is sampled at every slice that
// resolved a step.
func (f *fleet) run(r *passResult, tr *tracer) {
	const slice = 10 * time.Second
	start := time.Now()
	pass := tr.begin("pass")
	var queue []float64
	var backlogMax, pendingMax float64
	var resolved, blockN int64
	var blockWall time.Duration
	for t := slice; t <= f.horizon; t += slice {
		sp := tr.begin("sim.run")
		s := time.Now()
		f.c.Eng.RunUntil(t)
		blockWall += time.Since(s)
		tr.end(sp)
		n := f.c.Stats.StepsCompleted + f.c.Stats.StepsFailed - resolved
		resolved += n
		blockN += n
		if blockN >= blockSteps {
			r.items = append(r.items, blockWall/time.Duration(blockN))
			blockN, blockWall = 0, 0
		}
		if n > 0 {
			queue = append(queue, float64(f.c.QueueLen()))
		}
		backlogMax = max(backlogMax, float64(f.c.TranscodeBacklog()))
		pendingMax = max(pendingMax, float64(f.c.Eng.Pending()))
	}
	tr.end(pass)
	r.wall = time.Since(start)
	r.ops++

	st := f.c.Stats
	r.stats = &st
	r.steps = float64(st.StepsCompleted + st.StepsFailed)
	if err := checkConservation(st, census(f.graphs)); err != nil {
		r.fail("%v", err)
	}
	if st.StepsCompleted == 0 {
		r.fail("no step completed")
	}

	var tel vcu.Telemetry
	var encUtil, decUtil float64
	var n int
	for _, h := range f.c.Hosts {
		for _, v := range h.VCUs {
			tel.OpsCompleted += v.Telemetry.OpsCompleted
			tel.OpsFailed += v.Telemetry.OpsFailed
			tel.PixelsEncoded += v.Telemetry.PixelsEncoded
			encUtil += v.EncoderUtilization()
			decUtil += v.DecoderUtilization()
			n++
		}
	}
	r.outPix = float64(tel.PixelsEncoded)
	hours := f.horizon.Hours()
	r.outcome = map[string]float64{
		"live_slo":      st.SLOAttainment(sched.PriorityCritical),
		"goodput_per_h": float64(f.done) / hours,
		"escapes":       float64(st.CorruptionsEscaped),
	}
	var degraded int64
	for _, cs := range st.Classes {
		degraded += cs.Degraded
	}
	queueMax := 0.0
	for _, q := range queue {
		queueMax = max(queueMax, q)
	}
	r.layer = map[string]float64{
		"sim.simulated_s":           f.horizon.Seconds(),
		"cluster.queue_len_p50":     median(queue),
		"cluster.queue_len_max":     queueMax,
		"cluster.backlog_max":       backlogMax,
		"sim.pending_max":           pendingMax,
		"cluster.steps_completed":   float64(st.StepsCompleted),
		"cluster.steps_failed":      float64(st.StepsFailed),
		"cluster.retries":           float64(st.Retries),
		"cluster.hedges_launched":   float64(st.HedgesLaunched),
		"cluster.watchdog_fires":    float64(st.WatchdogFires),
		"cluster.graphs_shed":       float64(st.GraphsShed),
		"cluster.queue_high_water":  float64(st.QueueHighWater),
		"cluster.degraded":          float64(degraded),
		"cluster.autoscale_resizes": float64(st.Autoscale.ScaleUps + st.Autoscale.ScaleDowns),
		"cluster.audit.audited":     float64(st.Audit.Audited),
		"cluster.audit.failures":    float64(st.Audit.AuditFailures),
		"cluster.audit.recalled":    float64(st.Audit.StepsRecalled),
		"cluster.audit.convictions": float64(st.Audit.Convictions),
		"cluster.useful_frac":       ratio(st.StepsCompleted, st.StepsCompleted+st.StepsFailed+st.Retries),
		"cluster.hedge_win_frac":    ratio(st.HedgesWon, st.HedgesLaunched),
		"cluster.audit.hit_frac":    ratio(st.Audit.AuditFailures, st.Audit.Audited),
		"vcu.ops_completed":         float64(tel.OpsCompleted),
		"vcu.ops_failed":            float64(tel.OpsFailed),
		"vcu.encoder_util_mean":     encUtil / float64(n),
		"vcu.decoder_util_mean":     decUtil / float64(n),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// videoFor maps an arrival to a video as the overload game-day does:
// live streams pace in real time at critical priority, uploads are the
// normal MOT pipeline, batch re-encodes are bigger and lowest priority.
func videoFor(a workload.Arrival) cluster.VideoSpec {
	v := cluster.VideoSpec{
		ID: a.ID, Resolution: video.Res1080p, FPS: 30, Frames: 600, ChunkFrames: 150,
		Profile: codec.VP9Class, Mode: vcu.EncodeTwoPassOffline, MOT: true,
	}
	switch a.Class {
	case workload.ArriveLive:
		v.Frames, v.Mode, v.Live = 300, vcu.EncodeOnePassLowLatency, true
	case workload.ArriveBatch:
		v.Batch = true
	}
	return v
}

type spikeConfig struct {
	ratePerHour float64
	faults      int
	horizon     time.Duration
}

var defaultSpike = spikeConfig{ratePerHour: 2800, faults: 5, horizon: 4 * time.Hour}

// chaosSeed fixes fleet-spike's fault timeline and arrival trace.
const chaosSeed = 11

func spikePass(seed uint64, tr *tracer, cfg spikeConfig) passResult {
	var r passResult
	t0 := time.Now()
	f := spikeFleet(seed, cfg, tr)
	r.setup = time.Since(t0)
	f.run(&r, tr)
	return r
}

// spikeFleet builds the overload game-day's park, chaos schedule and
// arrival trace, with every submission scheduled.
func spikeFleet(seed uint64, cfg spikeConfig, tr *tracer) *fleet {
	ccfg := cluster.DefaultConfig(2)
	ccfg.Params.CardsPerTray = 1
	ccfg.Params.TraysPerHost = 1
	ccfg.Params.EncoderCores = 2
	ccfg.HedgeMultiplier = 4
	ccfg.RepairLatency = 15 * time.Minute
	ccfg.Overload = cluster.DefaultOverloadConfig()
	ccfg.Autoscale = cluster.DefaultAutoscaleConfig()
	ccfg.Seed = seed
	f := &fleet{c: cluster.New(ccfg), horizon: cfg.horizon}
	// The chaos schedule and the arrival trace are the game-day's fixed
	// timeline: where the host crash lands against the spike, and how
	// the arrivals bunch, decide most of a run's work, so seed-drawn ones
	// would vary the load more than the input.
	f.c.ApplyChaos(cluster.GenerateChaos(cluster.ChaosConfig{
		Seed: chaosSeed, Window: time.Hour, Hosts: ccfg.Hosts,
		VCUsPerHost: ccfg.Params.VCUsPerHost(), VCUFaults: cfg.faults, HostCrashes: 1,
	}))
	sp := tr.begin("workload.gen")
	arr := workload.GenerateArrivals(workload.ArrivalConfig{
		Seed: chaosSeed, Horizon: 90 * time.Minute, BaseRatePerHour: cfg.ratePerHour,
		DiurnalAmplitude: 0.3, DiurnalPeriod: 3 * time.Hour,
		SpikeStart: 30 * time.Minute, SpikeDuration: 30 * time.Minute, SpikeFactor: 2,
		LiveShare: 0.3, BatchShare: 0.4,
	})
	tr.end(sp)
	tr.count("workload.arrivals", float64(len(arr)))
	// The seed moves each arrival of the game-day's fixed trace by up
	// to a minute either way: another input, the same offered load.
	jitter := rand.New(rand.NewPCG(seed, 0x5eed))
	for _, a := range arr {
		at := a.At + time.Duration(jitter.Int64N(int64(2*time.Minute))) - time.Minute
		f.submitAt(max(at, 0), cluster.BuildGraph(videoFor(a), ccfg.StepTargetSeconds), tr)
	}
	return f
}

// fleet-audit-realpixels submits auditVideos videos in bursts of ten
// every five minutes, the audit game-day's load.
const (
	auditVideos     = 150
	auditBurst      = 10
	auditBurstEvery = 5 * time.Minute
	auditHorizon    = 6 * time.Hour
)

func auditPass(seed uint64, tr *tracer) passResult {
	var r passResult
	t0 := time.Now()
	ccfg := cluster.DefaultConfig(2)
	ccfg.Seed = seed
	ccfg.IntegrityCheckProb = 0.5
	ccfg.RealPixels = cluster.DefaultRealPixels()
	ccfg.Audit = cluster.DefaultAuditConfig()
	f := &fleet{c: cluster.New(ccfg), horizon: auditHorizon}
	f.c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultCorrupt, DutyCycle: 2, Persistent: true})
	base := int(seed%1000) * 1000
	for i := 0; i < auditVideos; i++ {
		spec := videoFor(workload.Arrival{ID: base + i, Class: workload.ArriveUpload})
		spec.Frames = 1200
		spec.Batch = i%4 == 3
		at := auditBurstEvery * time.Duration(i/auditBurst)
		f.submitAt(at, cluster.BuildGraph(spec, 10), tr)
	}
	r.setup = time.Since(t0)
	f.run(&r, tr)

	// The digest covers every completed chunk's real bitstream. Every
	// one that escaped no corruption must decode to the configured
	// length.
	rp := ccfg.RealPixels
	r.outPix = 0
	h := sha256.New()
	for _, g := range f.graphs {
		for _, s := range g.Steps {
			if s.Kind != cluster.StepTranscode || s.State != cluster.StepDone {
				continue
			}
			for _, p := range s.Packets {
				h.Write(p.Data)
			}
			if s.Software || s.Corrupted {
				continue
			}
			r.ops++
			if _, err := decodeShown(s.Packets, rp.Frames, rp.Width, rp.Height); err != nil {
				r.fail("video %d step %d: %v", g.ID, s.ID, err)
				continue
			}
			r.outPix += float64(rp.Frames * rp.Width * rp.Height)
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}
