package main

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
)

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []Span{
		{Req: 1, ID: 1, Name: "core.read", Start: 0, End: 100},
		// Two children overlapping on [30, 40) and one poking out of
		// the parent: covered = [10, 50) ∪ [90, 100) = 50.
		{Req: 1, ID: 2, Parent: 1, Name: "disk.read", Start: 10, End: 40},
		{Req: 1, ID: 3, Parent: 1, Name: "disk.read", Start: 30, End: 50},
		{Req: 1, ID: 4, Parent: 1, Name: "disk.write", Start: 90, End: 120},
		{Req: 2, ID: 5, Name: "core.read", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 30, 3: 20, 4: 30, 5: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := busy(spans[1:4], 0, 100); got != 0.5 {
		t.Errorf("busy share = %v, want 0.5", got)
	}
}

// TestLiveSpansShareRequest drives a kernel through a liveTarget and
// checks that a miss's store read is a child of the core call, with the
// same request id.
func TestLiveSpansShareRequest(t *testing.T) {
	fst, err := disk.NewFileStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	rec := newRecorder()
	tp := newTap("disk", rec)
	l := core.NewLive(core.LiveConfig{CacheBytes: 64 * blockSize, Store: tapStore(fst, tp)})
	lt := &liveTarget{lives: []*core.Live{l}, owners: []int{l.AddOwner("t")}, rec: rec, taps: []*tap{tp}}
	f, err := lt.create("f", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := 0; i < 2; i++ { // a miss, then a hit
		if err := lt.read(f, 0, 0, blockSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	spans := rec.snapshot()
	reads, disks := byName(spans, "core.read"), byName(spans, "disk.read")
	if len(reads) != 2 || len(disks) != 1 {
		t.Fatalf("got %d core and %d disk spans, want 2 and 1", len(reads), len(disks))
	}
	miss, d := reads[0], disks[0]
	if d.Parent != miss.ID || d.Req != miss.Req || reads[1].Req == miss.Req {
		t.Fatalf("disk span %+v is not the child of the miss %+v in its request", d, miss)
	}
	if self := selfTimes(spans); self[miss.ID] != miss.dur()-d.dur() {
		t.Fatalf("self time %d, want %d", self[miss.ID], miss.dur()-d.dur())
	}
}
