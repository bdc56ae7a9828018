package main

import (
	"bytes"
	"fmt"

	"openvcu/internal/cluster"
	"openvcu/internal/codec"
	"openvcu/internal/container"
	"openvcu/internal/video"
)

// mux writes packets as one indexed container stream.
func mux(info container.StreamInfo, pkts []codec.Packet) ([]byte, error) {
	var buf bytes.Buffer
	w := container.NewWriter(&buf)
	if err := w.WriteHeader(info); err != nil {
		return nil, fmt.Errorf("mux header: %w", err)
	}
	for i, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			return nil, fmt.Errorf("mux packet %d: %w", i, err)
		}
	}
	if err := w.WriteIndex(); err != nil {
		return nil, fmt.Errorf("mux index: %w", err)
	}
	return buf.Bytes(), nil
}

// demux reads an indexed stream back chunk by chunk after verifying
// every chunk checksum, and checks the header against want.
func demux(data []byte, want container.StreamInfo) ([]codec.Packet, error) {
	ir, err := container.OpenIndexed(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("demux: %w", err)
	}
	if got := ir.Info(); got != want {
		return nil, fmt.Errorf("demux: header %+v, want %+v", got, want)
	}
	if err := ir.VerifyChunks(); err != nil {
		return nil, fmt.Errorf("demux: verify: %w", err)
	}
	var pkts []codec.Packet
	for i := range ir.Chunks() {
		p, err := ir.ReadChunk(i)
		if err != nil {
			return nil, fmt.Errorf("demux: chunk %d: %w", i, err)
		}
		pkts = append(pkts, p...)
	}
	return pkts, nil
}

// checkRoundTrip requires the packets demuxed from a stream to equal
// the packets muxed into it, field by field, and to mux back to exactly
// the stream's bytes. Together the two leave no byte of a stream —
// header, packet fields the decoder ignores, index — free to change
// unnoticed.
func checkRoundTrip(data []byte, info container.StreamInfo, got, want []codec.Packet) error {
	if len(got) != len(want) {
		return fmt.Errorf("round trip: %d packets read back, %d written", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Show != w.Show || g.Keyframe != w.Keyframe || g.DisplayIdx != w.DisplayIdx || g.QP != w.QP ||
			!bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("round trip: packet %d read back differs from the one written", i)
		}
	}
	again, err := mux(info, got)
	if err != nil {
		return fmt.Errorf("round trip: %w", err)
	}
	if !bytes.Equal(again, data) {
		n := 0
		for n < len(again) && n < len(data) && again[n] == data[n] {
			n++
		}
		return fmt.Errorf("round trip: stream differs from its re-mux at byte %d of %d", n, len(data))
	}
	return nil
}

// decodeShown decodes a packet stream and returns its shown frames,
// requiring exactly frames of them at w×h.
func decodeShown(pkts []codec.Packet, frames, w, h int) ([]*video.Frame, error) {
	dec := codec.NewDecoder()
	var out []*video.Frame
	for i, p := range pkts {
		f, err := dec.Decode(p.Data)
		if err != nil {
			return nil, fmt.Errorf("decode packet %d: %w", i, err)
		}
		if !p.Show {
			continue
		}
		if f == nil || f.Width != w || f.Height != h {
			return nil, fmt.Errorf("decode packet %d: shown frame missing or not %dx%d", i, w, h)
		}
		out = append(out, f)
	}
	if len(out) != frames {
		return nil, fmt.Errorf("decode: %d shown frames, want %d", len(out), frames)
	}
	return out, nil
}

// checkPSNR compares decoded frames with their references and fails
// below floor dB.
func checkPSNR(ref, dec []*video.Frame, floor float64) (float64, error) {
	if len(ref) != len(dec) || len(ref) == 0 {
		return 0, fmt.Errorf("psnr: %d decoded frames for %d references", len(dec), len(ref))
	}
	psnr := video.SequencePSNR(ref, dec)
	if !(psnr >= floor) {
		return psnr, fmt.Errorf("psnr %.2f dB below the %.1f dB floor", psnr, floor)
	}
	return psnr, nil
}

// stepCensus counts, per priority class, the transcode steps of the
// submitted graphs by lifecycle state.
type stepCensus struct {
	done, shed, flight, pending [3]int64
}

func census(graphs []*cluster.Graph) stepCensus {
	var c stepCensus
	for _, g := range graphs {
		for _, s := range g.Steps {
			if s.Kind != cluster.StepTranscode {
				continue
			}
			switch s.State {
			case cluster.StepDone:
				c.done[g.Priority]++
			case cluster.StepShed:
				c.shed[g.Priority]++
			case cluster.StepReady, cluster.StepRunning, cluster.StepFailed:
				c.flight[g.Priority]++
			default:
				c.pending[g.Priority]++
			}
		}
	}
	return c
}

// checkConservation holds each class's step counters to the steps
// themselves. Every admitted step is done, in flight, re-opened and
// pending again, dropped at its deadline, or shed; admission control
// also sheds steps it never admitted, and a step re-opened after its
// output failed a check completes twice. So per class: Shed plus
// DeadlineMissed equals the shed steps, Completed is at least the done
// steps, and Admitted lies between done + in flight + DeadlineMissed
// and that plus the pending and shed steps.
func checkConservation(st cluster.Stats, c stepCensus) error {
	for p, cs := range st.Classes {
		if cs.Shed+cs.DeadlineMissed != c.shed[p] {
			return fmt.Errorf("class %d: shed %d + deadline-missed %d != %d shed steps",
				p, cs.Shed, cs.DeadlineMissed, c.shed[p])
		}
		if cs.Completed < c.done[p] {
			return fmt.Errorf("class %d: completed %d < %d done steps", p, cs.Completed, c.done[p])
		}
		lo := c.done[p] + c.flight[p] + cs.DeadlineMissed
		hi := lo + c.pending[p] + cs.Shed
		if cs.Admitted < lo || cs.Admitted > hi {
			return fmt.Errorf("class %d: admitted %d outside [%d, %d]: done %d + in flight %d + deadline-missed %d (+ pending %d + shed %d)",
				p, cs.Admitted, lo, hi, c.done[p], c.flight[p], cs.DeadlineMissed, c.pending[p], cs.Shed)
		}
	}
	return nil
}

// checkSameStats requires two runs of one seed to end in identical
// Stats.
func checkSameStats(a, b cluster.Stats) error {
	if a != b {
		return fmt.Errorf("stats differ between runs of one seed:\n  %+v\n  %+v", a, b)
	}
	return nil
}
