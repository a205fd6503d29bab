package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// The layer is the part of the name before the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Name   string `json:"name"`
	// Req identifies the request the call served: a Figure-5 point, a
	// topology, a replication batch or a job.
	Req     string `json:"req"`
	StartNS int64  `json:"start_ns"` // since the recorder was made
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until write is called once at exit. A nil
// recorder records nothing, so untraced code paths pass nil.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(parent int, name, req string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, StartNS: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(parent int, name, req string, f func() error) (time.Duration, error) {
	id := r.start(parent, name, req)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.end(id)
	return d, err
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children's intervals
// cover (children may overlap when they run on parallel workers).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		lo, hi := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// printSelf prints the self time of every layer.
func (r *recorder) printSelf(w io.Writer) {
	r.mu.Lock()
	self := selfTimes(r.spans)
	r.mu.Unlock()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self time: %-10s %12.3f ms\n", l, ms(self[l]))
	}
}

// write stores every span and the per-layer self times as one JSON file
// in dir and returns its path.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make(map[string]float64)
	for l, d := range selfTimes(r.spans) {
		self[l] = ms(d)
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, r.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	return path, os.WriteFile(path, b, 0o644)
}
