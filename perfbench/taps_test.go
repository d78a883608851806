package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/disk"
)

// countingBatch is a BatchStore that counts the calls it receives.
type countingBatch struct {
	*disk.MemStore
	batchReads, batchWrites int
}

func (c *countingBatch) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	c.batchReads++
	return c.MemStore.ReadBlocks(specs, dsts)
}

func (c *countingBatch) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	c.batchWrites++
	return c.MemStore.WriteBlocks(specs, srcs)
}

// plainStore hides every method but the disk.Store ones.
type plainStore struct{ disk.Store }

func batchOf(n int) ([]disk.BlockSpan, [][]byte) {
	specs := make([]disk.BlockSpan, n)
	bufs := make([][]byte, n)
	for i := range specs {
		specs[i] = disk.BlockSpan{File: 1, Blk: int32(i)}
		bufs[i] = make([]byte, blockSize)
		fillPattern(bufs[i], uint64(i))
	}
	return specs, bufs
}

func TestTapKeepsBatchFace(t *testing.T) {
	fst, err := disk.NewFileStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	wrapped := tapStore(fst, newTap("disk", nil))
	bs, ok := wrapped.(disk.BatchStore)
	if !ok {
		t.Fatal("a tapped FileStore lost the disk.BatchStore face the server asserts for batched fills")
	}
	specs, bufs := batchOf(8)
	for _, err := range bs.WriteBlocks(specs, bufs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, vr0, _, _ := fst.IOCounts()
	for _, err := range bs.ReadBlocks(specs, bufs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sr, vr, _, _ := fst.IOCounts(); vr-vr0 != 1 || sr != 0 {
		t.Fatalf("an 8-block run read with %d vectored and %d scalar calls, want 1 and 0", vr-vr0, sr)
	}

	if _, ok := tapStore(plainStore{disk.NewMemStore()}, newTap("disk", nil)).(disk.BatchStore); ok {
		t.Fatal("a tapped plain store grew a BatchStore face its store does not have")
	}
}

func TestTapForwardsBatchAsOneCall(t *testing.T) {
	inner := &countingBatch{MemStore: disk.NewMemStore()}
	tp := newTap("disk", newRecorder())
	bs := tapStore(inner, tp).(disk.BatchStore)
	specs, bufs := batchOf(5)
	bs.WriteBlocks(specs, bufs)
	bs.ReadBlocks(specs, bufs)
	if inner.batchReads != 1 || inner.batchWrites != 1 {
		t.Fatalf("inner saw %d batch reads and %d batch writes, want 1 and 1", inner.batchReads, inner.batchWrites)
	}
	c := tp.counts()
	if c.readCalls != 1 || c.writeCalls != 1 || c.readBlocks != 5 || c.writeBlocks != 5 {
		t.Fatalf("tap counted %+v, want one 5-block call each way", c)
	}
	if n := len(tp.rec.Load().snapshot()); n != 2 {
		t.Fatalf("tap recorded %d spans, want 2", n)
	}
}

func TestOriginTapForwardsRuns(t *testing.T) {
	tp := newTap("origin", nil)
	o := &originTap{tap: tp, inner: cluster.NewMemOrigin()}
	_, bufs := batchOf(4)
	if err := o.WriteRun("f", 0, bufs); err != nil {
		t.Fatal(err)
	}
	if err := o.ReadRun("f", 0, bufs); err != nil {
		t.Fatal(err)
	}
	if c := tp.counts(); c.calls() != 2 || c.blocks() != 8 {
		t.Fatalf("origin tap counted %+v, want 2 calls moving 8 blocks", c)
	}
}
