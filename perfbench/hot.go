package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/server"
)

const (
	hotSessions = 2
	hotBlocks   = 409 // about half of the 6.4 MB cache (819 blocks)
	hotZipf     = 0.99
	hotWritePct = 10
	hotOps      = 1 << 20 // generated ops per session; the stream repeats
	hotFile     = "hot/shared"
)

// hotKernel serves the hot file with control off and no read-ahead.
func hotKernel(st disk.Store) core.LiveConfig {
	return core.LiveConfig{CacheBytes: core.MB(6.4), Alloc: cache.LRUSP, Store: st, WallClock: true}
}

// hotWL: every session reads whole blocks of one shared file, Zipf
// distributed, and writes 1 KiB chunks of it now and then. Chunk c of
// every block is written by session c mod hotSessions only, so each
// chunk's versions are totally ordered and a read can be checked
// against the last write acknowledged before it was sent.
type hotWL struct {
	seed uint64
	ops  [][]uint32 // per session: blk<<4 | chunk<<1 | write
}

func (w *hotWL) config() map[string]any {
	return map[string]any{
		"store": "disk.FileStore", "alloc": "lru-sp", "cache_mb": 6.4, "shards": 1,
		"writeback_depth": 0, "readahead": 0, "control": "off", "sessions": hotSessions,
		"file_blocks": hotBlocks, "zipf": hotZipf, "write_pct": hotWritePct, "write_bytes": chunkSize,
	}
}

func (w *hotWL) gen(seed uint64) (string, error) {
	w.seed = seed
	rng := rand.New(rand.NewSource(int64(seed)))
	// Zipf over ranks, then a seeded rank→block permutation so the hot
	// blocks sit anywhere in the file.
	cdf := make([]float64, hotBlocks)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), hotZipf)
		cdf[r] = sum
	}
	perm := rng.Perm(hotBlocks)
	h := sha256.New()
	fmt.Fprintf(h, "hot seed=%d\n", seed)
	w.ops = make([][]uint32, hotSessions)
	var b [4]byte
	for i := range w.ops {
		ops := make([]uint32, hotOps)
		for j := range ops {
			r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			op := uint32(perm[min(r, hotBlocks-1)]) << 4
			if rng.Intn(100) < hotWritePct {
				c := rng.Intn(chunksPerBlock/hotSessions)*hotSessions + i
				op |= uint32(c)<<1 | 1
			}
			ops[j] = op
			binary.LittleEndian.PutUint32(b[:], op)
			h.Write(b[:])
		}
		w.ops[i] = ops
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hotState is the chunk versions the sessions share: sent is the
// newest version any write carried, acked the newest acknowledged.
type hotState struct {
	sent, acked []atomic.Uint64
}

func newHotState() *hotState {
	return &hotState{sent: make([]atomic.Uint64, hotBlocks*chunksPerBlock),
		acked: make([]atomic.Uint64, hotBlocks*chunksPerBlock)}
}

// populateHot writes version 0 of every chunk straight into the store.
func populateHot(st disk.BatchStore, f fs.FileID) error {
	specs := make([]disk.BlockSpan, hotBlocks)
	bufs := make([][]byte, hotBlocks)
	for blk := range bufs {
		bufs[blk] = make([]byte, blockSize)
		for c := 0; c < chunksPerBlock; c++ {
			stampChunk(bufs[blk][c*chunkSize:], int32(blk), c, 0xFFFF, 0)
		}
		specs[blk] = disk.BlockSpan{File: int32(f), Blk: int32(blk)}
	}
	for _, err := range st.WriteBlocks(specs, bufs) {
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

// sessions opens the shared file on every target (the first creates
// it), and returns the sessions and the file's id.
func (w *hotWL) sessions(ts []target, st *hotState) ([]*hotSession, fs.FileID, error) {
	var ss []*hotSession
	var f fs.FileID
	for i, t := range ts {
		var id fs.FileID
		var err error
		if i == 0 {
			id, err = t.create(hotFile, 0, hotBlocks)
			f = id
		} else {
			id, err = t.open(hotFile)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("open %s: %w", hotFile, err)
		}
		ss = append(ss, &hotSession{t: t, f: id, idx: i, ops: w.ops[i], st: st,
			buf: make([]byte, blockSize), chunk: make([]byte, chunkSize)})
	}
	return ss, f, nil
}

// warm reads every block once through the first session: set-up's cache
// warm-up, checked like any read.
func warm(s *hotSession) error {
	for blk := int32(0); blk < hotBlocks; blk++ {
		if err := s.read(new(meter), blk); err != nil {
			return err
		}
	}
	return nil
}

// checkHotStore checks that the store holds, after close, the newest
// acknowledged version of every chunk (or a newer one a failed write
// may have left).
func checkHotStore(st *hotState, read func(blk int32, dst []byte) error) error {
	buf := make([]byte, blockSize)
	for blk := int32(0); blk < hotBlocks; blk++ {
		if err := read(blk, buf); err != nil {
			return err
		}
		for c := 0; c < chunksPerBlock; c++ {
			v, err := chunkVersion(buf[c*chunkSize:], blk, c)
			if err != nil {
				return fmt.Errorf("durability: %w", err)
			}
			i := int(blk)*chunksPerBlock + c
			if v < st.acked[i].Load() || v > st.sent[i].Load() {
				return mismatchf("durability: block %d chunk %d holds version %d, acknowledged %d", blk, c, v, st.acked[i].Load())
			}
		}
	}
	return nil
}

func (w *hotWL) setup(dir string) (*rig, error) {
	fst, err := newStoreIn(dir)
	if err != nil {
		return nil, err
	}
	tp := newTap("disk", nil)
	d, err := startDaemon(dir, server.Config{Kernel: hotKernel(tapStore(fst, tp))})
	if err != nil {
		fst.Close()
		return nil, err
	}
	ts, err := d.dial(hotSessions)
	if err != nil {
		d.stop()
		fst.Close()
		return nil, err
	}
	abort := func() {
		closeAll(ts)
		d.stop()
		fst.Close()
	}
	st := newHotState()
	ss, f, err := w.sessions(ts, st)
	if err == nil {
		err = populateHot(fst, f)
	}
	if err == nil {
		err = warm(ss[0])
	}
	if err != nil {
		abort()
		return nil, err
	}
	return &rig{
		sessions: asSessions(ss),
		tap:      tp,
		kernel:   d.kernel,
		abort:    abort,
		finish: func() error {
			closeAll(ts)
			if err := d.stop(); err != nil {
				fst.Close()
				return err
			}
			defer fst.Close()
			return checkHotStore(st, func(blk int32, dst []byte) error { return fst.ReadBlock(int32(f), blk, dst) })
		},
	}, nil
}

func (w *hotWL) wireless(dir string, rec *recorder, d time.Duration) (*phase, error) {
	fst, err := newStoreIn(dir)
	if err != nil {
		return nil, err
	}
	defer fst.Close()
	tp := newTap("disk", nil)
	l := core.NewLive(hotKernel(tapStore(fst, tp)))
	ts := make([]target, hotSessions)
	lts := make([]*liveTarget, hotSessions)
	for i := range ts {
		lts[i] = &liveTarget{lives: []*core.Live{l}, owners: []int{l.AddOwner(fmt.Sprintf("s%d", i))}, taps: []*tap{tp}}
		ts[i] = lts[i]
	}
	st := newHotState()
	ss, f, err := w.sessions(ts, st)
	if err != nil {
		return nil, err
	}
	if err := populateHot(fst, f); err != nil {
		return nil, err
	}
	if err := warm(ss[0]); err != nil {
		return nil, err
	}
	tp.rec.Store(rec)
	for _, lt := range lts {
		lt.rec = rec
	}
	ph, err := runInline(asSessions(ss), d, 0)
	tp.rec.Store(nil)
	if err != nil {
		return nil, err
	}
	if _, err := l.FlushDirty(core.MaxTime); err != nil {
		return nil, err
	}
	return ph, checkHotStore(st, func(blk int32, dst []byte) error { return fst.ReadBlock(int32(f), blk, dst) })
}

type hotSession struct {
	t     target
	f     fs.FileID
	idx   int
	ops   []uint32
	pos   int
	st    *hotState
	buf   []byte
	chunk []byte
	lo    [chunksPerBlock]uint64
}

func (s *hotSession) step(m *meter) error {
	op := s.ops[s.pos]
	s.pos = (s.pos + 1) % len(s.ops)
	blk := int32(op >> 4)
	if op&1 == 0 {
		return s.read(m, blk)
	}
	c := int(op >> 1 & 7)
	i := int(blk)*chunksPerBlock + c
	v := s.st.sent[i].Load() + 1
	s.st.sent[i].Store(v)
	stampChunk(s.chunk, blk, c, uint16(s.idx), v)
	t0 := time.Now()
	err := s.t.write(s.f, blk, c*chunkSize, s.chunk)
	m.done(opWrite, t0, err)
	if err == nil {
		s.st.acked[i].Store(v)
	}
	return fatal(err)
}

// read reads a whole block and checks every chunk is whole and no older
// than the newest write acknowledged before the read was sent.
func (s *hotSession) read(m *meter, blk int32) error {
	base := int(blk) * chunksPerBlock
	for c := range s.lo {
		s.lo[c] = s.st.acked[base+c].Load()
	}
	t0 := time.Now()
	err := s.t.read(s.f, blk, 0, blockSize, s.buf)
	m.done(opRead, t0, err)
	if err != nil {
		return fatal(err)
	}
	for c := range s.lo {
		v, err := chunkVersion(s.buf[c*chunkSize:], blk, c)
		if err != nil {
			return err
		}
		if hi := s.st.sent[base+c].Load(); v < s.lo[c] || v > hi {
			return mismatchf("block %d chunk %d: read version %d, acknowledged %d before the read, newest sent %d",
				blk, c, v, s.lo[c], hi)
		}
	}
	return nil
}
