package main

import (
	"math"
	"testing"
	"time"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 100) // 100 ns .. 10 ms
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e7
		if got := h.quantile(q); math.Abs(got-want)/want > 0.016 {
			t.Errorf("q%v = %v, want %v within 1.6%%", q, got, want)
		}
	}
	for i := 0; i+1 < len(h.counts); i++ {
		_, hi := bucketBounds(i)
		if lo, _ := bucketBounds(i + 1); hi != lo {
			t.Fatalf("bucket %d ends at %v, bucket %d starts at %v", i, hi, i+1, lo)
		}
	}
	for _, v := range []int64{0, 5, 127, 128, 1000, 123456, 1 << 40} {
		b := bucket(v)
		if lo, hi := bucketBounds(b); b < len(h.counts)-1 && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d lands in bucket %d [%v, %v)", v, b, lo, hi)
		}
	}
}

// TestPhaseMediansOverWindows: a burst that slows one window of a phase
// moves the pooled p99 but not the reported figures, which are medians
// over the windows.
func TestPhaseMediansOverWindows(t *testing.T) {
	p := &phase{wins: make([]window, 5)}
	t0 := time.Unix(0, 0)
	for i := range p.wins {
		p.at = append(p.at, t0.Add(time.Duration(i)*windowLen))
		p.cpu = append(p.cpu, time.Duration(i)*windowLen/2)
		lat := int64(10_000) // 10 µs
		if i == 2 {
			lat = 1_000_000 // the burst: 1 ms
		}
		for n := 0; n < 1000; n++ {
			p.wins[i].lat[opRead].add(lat)
		}
		p.wins[i].ops = 1000
	}
	p.at = append(p.at, t0.Add(5*windowLen))
	p.cpu = append(p.cpu, 5*windowLen/2)
	if got := p.latency(opRead, 0.99); math.Abs(got-10) > 0.2 {
		t.Errorf("read p99 = %v µs, want 10", got)
	}
	if got := p.windowRate(); got != 1000 {
		t.Errorf("rate = %v op/s, want 1000", got)
	}
	if got := p.cpuPerOp(); got != 500 {
		t.Errorf("cpu per op = %v µs, want 500", got)
	}
	if got := p.samples(opRead); got != 5000 {
		t.Errorf("samples = %d, want 5000", got)
	}
}
