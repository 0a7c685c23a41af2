package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded only
// by the benchmark's own code, around its calls into each layer's public
// API; spans of one request (or one control-plane epoch, or one solve)
// share an ID, and Parent names the layer whose call caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	// Start is nanoseconds from the start of the phase that recorded the
	// span, or -1 when only the duration is known: the gateway and backend
	// spans are reconstructed from the elapsed_s and service_s fields the
	// gateway puts on the wire.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// Layer names, after the modules they measure.
const (
	layerClient  = "client"  // client round trip: the gateway front's parent
	layerGateway = "gateway" // serve.Gateway: elapsed_s, the forward hop
	layerBackend = "backend" // serve.Backend: service_s
	layerReequil = "reequil" // one control-plane epoch
	layerSolve   = "megascale.solve"
	layerEncode  = "fleet.encode"
	layerDecode  = "fleet.decode"
	layerInstall = "serve.install"
	layerSave    = "fleet.wal.save"
	layerBuild   = "megascale.build"
	layerRoute   = "route.build"
	layerAdmit   = "admission.batch"
	layerPick    = "route.pick.batch"
)

// appendRequestSpans records the three nested spans of one request: the
// client round trip, the gateway's forward (elapsed_s) and the backend's
// service (service_s). A failed request records only its round trip.
func appendRequestSpans(dst []span, id uint64, s *reqSample) []span {
	dst = append(dst, span{ID: id, Layer: layerClient, Start: int64(s.sent), Dur: int64(s.done - s.sent)})
	if !s.ok() {
		return dst
	}
	return append(dst,
		span{ID: id, Layer: layerGateway, Parent: layerClient, Start: -1, Dur: int64(math.Round(s.elapsed * 1e9))},
		span{ID: id, Layer: layerBackend, Parent: layerGateway, Start: -1, Dur: int64(math.Round(s.service * 1e9))},
	)
}

// timed records a span of layer around f when log is non-nil.
func timed(log *[]span, origin time.Time, id uint64, layer, parent string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	if log != nil {
		*log = append(*log, span{ID: id, Layer: layer, Parent: parent, Start: int64(start.Sub(origin)), Dur: int64(d)})
	}
	return d, err
}

// selfTimes returns, per layer, the self time of every span: its duration
// minus the durations of the spans it directly caused (same ID, Parent equal
// to its layer). Children of one span never overlap in this benchmark (a
// request's hops are nested, an epoch's steps sequential), so the sum of
// their durations is the part of the interval they cover.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		id    uint64
		layer string
	}
	child := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.Dur
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Layer] = append(out[s.Layer], time.Duration(s.Dur-child[key{s.ID, s.Layer}]))
	}
	return out
}

// durationsMs converts durations to ascending milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return sortedCopy(out)
}

// writeSpans writes every span, one JSON object a line, to dir/name. It is
// called once, after measuring ends.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
