package main

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/fs"
)

// staleStore acknowledges writes without keeping them, so a block read
// back after its write-back is the stale one.
type staleStore struct{ *disk.FileStore }

func (s staleStore) WriteBlock(file, blk int32, src []byte) error { return nil }
func (s staleStore) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	return make([]error, len(specs))
}

// tornStore returns blocks whose second half is zeros.
type tornStore struct{ *disk.FileStore }

func (s tornStore) ReadBlock(file, blk int32, dst []byte) error {
	err := s.FileStore.ReadBlock(file, blk, dst)
	clear(dst[blockSize/2:])
	return err
}

func (s tornStore) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	errs := s.FileStore.ReadBlocks(specs, dsts)
	for _, d := range dsts {
		clear(d[blockSize/2:])
	}
	return errs
}

// runFaulty sets the replay workload up over a faulty store with a small
// cache, runs it until its sessions have had writes acknowledged (the
// seed's app order may start with apps that only read), and returns the
// first error: set-up, run or the final durability check.
func runFaulty(t *testing.T, wrap func(*disk.FileStore) disk.Store) error {
	w := &replayWL{cacheMB: 0.25, wrap: func(s disk.Store) disk.Store { return wrap(s.(*disk.FileStore)) }}
	if _, err := w.gen(7); err != nil {
		t.Fatal(err)
	}
	rg, err := w.setup(t.TempDir())
	if err != nil {
		return err
	}
	writes := func() (n uint64) {
		for _, s := range rg.sessions {
			n += s.(*replaySession).writes
		}
		return n
	}
	for i := 0; i < 60 && err == nil && writes() < 1000; i++ {
		_, err = runPhase(rg.sessions, time.Second, 0, nil)
	}
	if ferr := rg.finish(); err == nil {
		err = ferr
	}
	return err
}

func TestCheckerCatchesFaultyStore(t *testing.T) {
	if err := runFaulty(t, func(s *disk.FileStore) disk.Store { return s }); err != nil {
		t.Fatalf("sound store: %v", err)
	}
	for name, wrap := range map[string]func(*disk.FileStore) disk.Store{
		"stale": func(s *disk.FileStore) disk.Store { return staleStore{s} },
		"torn":  func(s *disk.FileStore) disk.Store { return tornStore{s} },
	} {
		if err := runFaulty(t, wrap); !errors.Is(err, errMismatch) {
			t.Errorf("%s store: got %v, want a mismatch", name, err)
		} else {
			t.Logf("%s store: %v", name, err)
		}
	}
}

func TestChunkCheck(t *testing.T) {
	c := make([]byte, chunkSize)
	stampChunk(c, 7, 3, 1, 42)
	if v, err := chunkVersion(c, 7, 3); err != nil || v != 42 {
		t.Fatalf("fresh chunk: version %d, %v", v, err)
	}
	if _, err := chunkVersion(c, 7, 4); !errors.Is(err, errMismatch) {
		t.Fatalf("misplaced chunk: %v", err)
	}
	c[500] ^= 1
	if _, err := chunkVersion(c, 7, 3); !errors.Is(err, errMismatch) {
		t.Fatalf("torn chunk: %v", err)
	}
}

func TestPrivateModel(t *testing.T) {
	m := newPrivateModel(3)
	m.addFile(1, "f", 2)
	fst, err := disk.NewFileStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if err := populate(fst, 3, []replayFile{{1, "f", 2}}); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	fillPattern(p, 99)
	m.applyWrite(1, 3, 100, len(p), 99) // grows the file past its populated size
	read := func(f fs.FileID, blk int32, dst []byte) error { return fst.ReadBlock(int32(f), blk, dst) }
	if _, err := m.checkStore(read); !errors.Is(err, errMismatch) {
		t.Fatalf("store without the write: %v, want a mismatch", err)
	}
	b := make([]byte, blockSize)
	copy(b[100:], p)
	fst.WriteBlock(1, 3, b)
	if n, err := m.checkStore(read); err != nil || n != 4 {
		t.Fatalf("store with the write: %d blocks, %v", n, err)
	}
	got := make([]byte, 5)
	fst.ReadBlock(1, 1, b)
	copy(got, b[8:13])
	if err := m.checkRead(1, 1, 8, got); err != nil {
		t.Fatal(err)
	}
	got[0] ^= 1
	if err := m.checkRead(1, 1, 8, got); !errors.Is(err, errMismatch) {
		t.Fatalf("altered read: %v", err)
	}
}
