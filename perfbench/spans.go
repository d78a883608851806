package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around a call into one of the program's public functions.
// Spans of one request share Req; Parent names the span whose call
// caused this one (0: none seen from outside).
type Span struct {
	Req, ID, Parent uint64
	Name            string
	Start, End      int64 // ns since the recorder's epoch
}

func (s Span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the length of a run; write puts
// them in a file once the run is over. A nil *recorder records nothing,
// which is how the untraced run takes no timestamps below the client.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// now is the recorder clock: ns since its epoch (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID hands out span and request ids; 0 is never returned.
func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far. The slice is shared:
// callers read it once recording is over and do not modify it.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// write stores every span as one tab-separated line:
// req, id, parent, name, start ns, end ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Req, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi]: overlapping intervals count once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	cl := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			cl = append(cl, [2]int64{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, end int64
	end = lo
	for _, v := range cl {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// selfTimes returns, for every span, its duration minus the part of it
// that its child spans cover (overlapping children counted once).
func selfTimes(spans []Span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// byName returns the spans with the given name.
func byName(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// busy is the share of [lo, hi] that the spans cover.
func busy(spans []Span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	return float64(covered(iv, lo, hi)) / float64(hi-lo)
}
