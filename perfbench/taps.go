package main

import (
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/disk"
)

// tap counts, and with a recorder times, the calls the daemon makes into
// its block store ("disk") or the cluster origin ("origin"). Counting
// uses atomics only, so the untraced run pays no clock reads here.
type tap struct {
	name string
	rec  atomic.Pointer[recorder] // nil: count only

	readCalls, writeCalls   atomic.Int64
	readBlocks, writeBlocks atomic.Int64
	errs                    atomic.Int64

	// req and parent name the core call in progress. Only the wire-less
	// pass sets them: there one goroutine runs the kernel with inline
	// fills, so every store call is a child of the call that caused it.
	req, parent atomic.Uint64
}

func newTap(name string, rec *recorder) *tap {
	t := &tap{name: name}
	t.rec.Store(rec)
	return t
}

func (t *tap) begin() int64 {
	if r := t.rec.Load(); r != nil {
		return r.now()
	}
	return 0
}

func (t *tap) end(write bool, blocks int, start int64, errs ...error) {
	op := ".read"
	if write {
		op = ".write"
		t.writeCalls.Add(1)
		t.writeBlocks.Add(int64(blocks))
	} else {
		t.readCalls.Add(1)
		t.readBlocks.Add(int64(blocks))
	}
	for _, err := range errs {
		if err != nil {
			t.errs.Add(1)
		}
	}
	if r := t.rec.Load(); r != nil {
		r.add(Span{Req: t.req.Load(), ID: r.newID(), Parent: t.parent.Load(),
			Name: t.name + op, Start: start, End: r.now()})
	}
}

// tapCounts is a snapshot of a tap's counters.
type tapCounts struct {
	readCalls, writeCalls, readBlocks, writeBlocks, errs int64
}

func (t *tap) counts() tapCounts {
	return tapCounts{t.readCalls.Load(), t.writeCalls.Load(), t.readBlocks.Load(), t.writeBlocks.Load(), t.errs.Load()}
}

func (a tapCounts) sub(b tapCounts) tapCounts {
	return tapCounts{a.readCalls - b.readCalls, a.writeCalls - b.writeCalls,
		a.readBlocks - b.readBlocks, a.writeBlocks - b.writeBlocks, a.errs - b.errs}
}

func (a tapCounts) blocks() int64 { return a.readBlocks + a.writeBlocks }
func (a tapCounts) calls() int64  { return a.readCalls + a.writeCalls }

// storeTap is a disk.Store that forwards to inner through a tap. Close
// does not close inner: the benchmark reads the store back after the
// server has closed, then closes it itself.
type storeTap struct {
	*tap
	inner disk.Store
}

func (s *storeTap) ReadBlock(file, blk int32, dst []byte) error {
	t0 := s.begin()
	err := s.inner.ReadBlock(file, blk, dst)
	s.end(false, 1, t0, err)
	return err
}

func (s *storeTap) WriteBlock(file, blk int32, src []byte) error {
	t0 := s.begin()
	err := s.inner.WriteBlock(file, blk, src)
	s.end(true, 1, t0, err)
	return err
}

func (s *storeTap) Close() error { return nil }

// batchStoreTap keeps the disk.BatchStore face of a store that has one.
// The server picks batched or per-block fills by asserting BatchStore on
// its base store, so a wrapper without it would benchmark another path.
type batchStoreTap struct {
	storeTap
	batch disk.BatchStore
}

func (s *batchStoreTap) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	t0 := s.begin()
	errs := s.batch.ReadBlocks(specs, dsts)
	s.end(false, len(specs), t0, errs...)
	return errs
}

func (s *batchStoreTap) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	t0 := s.begin()
	errs := s.batch.WriteBlocks(specs, srcs)
	s.end(true, len(specs), t0, errs...)
	return errs
}

// tapStore wraps inner in t, keeping BatchStore when inner has it.
func tapStore(inner disk.Store, t *tap) disk.Store {
	st := storeTap{tap: t, inner: inner}
	if b, ok := inner.(disk.BatchStore); ok {
		return &batchStoreTap{storeTap: st, batch: b}
	}
	return &st
}

// originTap is a cluster.Origin forwarding to inner through a tap. The
// run methods are the origin's batch face and are forwarded as one call.
type originTap struct {
	*tap
	inner cluster.Origin
}

func (o *originTap) ReadBlock(name string, blk int32, dst []byte) error {
	t0 := o.begin()
	err := o.inner.ReadBlock(name, blk, dst)
	o.end(false, 1, t0, err)
	return err
}

func (o *originTap) WriteBlock(name string, blk int32, src []byte) error {
	t0 := o.begin()
	err := o.inner.WriteBlock(name, blk, src)
	o.end(true, 1, t0, err)
	return err
}

func (o *originTap) ReadRun(name string, start int32, dsts [][]byte) error {
	t0 := o.begin()
	err := o.inner.ReadRun(name, start, dsts)
	o.end(false, len(dsts), t0, err)
	return err
}

func (o *originTap) WriteRun(name string, start int32, srcs [][]byte) error {
	t0 := o.begin()
	err := o.inner.WriteRun(name, start, srcs)
	o.end(true, len(srcs), t0, err)
	return err
}

func (o *originTap) Close() error { return o.inner.Close() }
