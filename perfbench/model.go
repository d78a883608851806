package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"repro/internal/disk"
	"repro/internal/fs"
)

const blockSize = disk.BlockSize

// errMismatch marks a read, durability or golden check that failed: the
// program returned bytes the reference model says it must not.
var errMismatch = errors.New("mismatch")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errMismatch}, args...)...)
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// nameKey hashes a file name into the key its contents derive from, so
// the same file holds the same bytes on every target it is created on.
func nameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// fillPattern fills dst with the word sequence k, k+g, k+2g, ... (g the
// golden-ratio constant): unique per key, cheap to generate and check.
func fillPattern(dst []byte, k uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], k+uint64(i/8)*0x9E3779B97F4A7C15)
	}
	for i := len(dst) &^ 7; i < len(dst); i++ {
		dst[i] = byte(k >> (8 * (i & 7)))
	}
}

// blockKey is the content key of version ver of block blk of a file.
func blockKey(seed, file uint64, blk int32, ver uint64) uint64 {
	return splitmix(seed ^ splitmix(file^uint64(uint32(blk))<<20^ver<<44))
}

type fileBlock struct {
	f   fs.FileID
	blk int32
}

// privateModel is the reference model of one session's private files:
// every block reads as its last acknowledged write, or as the pattern
// the set-up populated it with, or as zeros past the populated size.
// A written block is kept as the patches that made it, not its bytes,
// so the model stays small next to the daemon it checks.
type privateModel struct {
	seed    uint64
	files   map[fs.FileID]*modelFile
	written map[fileBlock][]patch
	scratch []byte
}

// patch is one acknowledged write: size bytes of pattern key at off.
type patch struct {
	off, size int32
	key       uint64
}

type modelFile struct {
	name   string
	key    uint64
	size   int // populated blocks
	blocks int // highest block ever addressed + 1
}

func newPrivateModel(seed uint64) *privateModel {
	return &privateModel{seed: seed, files: make(map[fs.FileID]*modelFile),
		written: make(map[fileBlock][]patch), scratch: make([]byte, blockSize)}
}

func (m *privateModel) addFile(f fs.FileID, name string, size int) {
	m.files[f] = &modelFile{name: name, key: nameKey(name), size: size, blocks: size}
}

// expect returns the block the model holds for (f, blk). The slice is
// valid until the next call.
func (m *privateModel) expect(f fs.FileID, blk int32) ([]byte, error) {
	mf := m.files[f]
	if mf == nil {
		return nil, fmt.Errorf("model: unknown file %d", f)
	}
	if int(blk) < mf.size {
		fillPattern(m.scratch, blockKey(m.seed, mf.key, blk, 0))
	} else {
		clear(m.scratch)
	}
	for _, p := range m.written[fileBlock{f, blk}] {
		fillPattern(m.scratch[p.off:p.off+p.size], p.key)
	}
	return m.scratch, nil
}

func (m *privateModel) checkRead(f fs.FileID, blk int32, off int, got []byte) error {
	want, err := m.expect(f, blk)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want[off:off+len(got)]) {
		return mismatchf("file %s block %d [%d,%d): read differs from the last acknowledged write",
			m.files[f].name, blk, off, off+len(got))
	}
	return nil
}

// applyWrite records an acknowledged write of fillPattern(key) bytes.
// Patches the new one covers are dropped, so a block's list is bounded
// by the distinct ranges written to it.
func (m *privateModel) applyWrite(f fs.FileID, blk int32, off, size int, key uint64) {
	k := fileBlock{f, blk}
	if mf := m.files[f]; int(blk) >= mf.blocks {
		mf.blocks = int(blk) + 1
	}
	np := patch{int32(off), int32(size), key}
	ps := m.written[k][:0]
	for _, p := range m.written[k] {
		if p.off < np.off || p.off+p.size > np.off+np.size {
			ps = append(ps, p)
		}
	}
	m.written[k] = append(ps, np)
}

// checkStore compares every block of every file with what read returns
// from the store after the daemon has flushed and closed.
func (m *privateModel) checkStore(read func(f fs.FileID, blk int32, dst []byte) error) (int, error) {
	got := make([]byte, blockSize)
	n := 0
	for f, mf := range m.files {
		for blk := int32(0); int(blk) < mf.blocks; blk++ {
			if err := read(f, blk, got); err != nil {
				return n, err
			}
			want, _ := m.expect(f, blk)
			if !bytes.Equal(got, want) {
				return n, mismatchf("durability: file %s block %d differs in the store after close", mf.name, blk)
			}
			n++
		}
	}
	return n, nil
}

// Shared hot-file blocks are eight 1 KiB chunks. Each chunk carries the
// block and chunk it belongs to, the writing session, a version, and a
// CRC of the rest, so a read can tell a whole chunk from a torn one and
// an old version from the current one.
const (
	chunkSize      = 1024
	chunksPerBlock = blockSize / chunkSize
	chunkHeader    = 16
)

func stampChunk(dst []byte, blk int32, c int, writer uint16, ver uint64) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(blk))
	binary.LittleEndian.PutUint16(dst[4:], uint16(c))
	binary.LittleEndian.PutUint16(dst[6:], writer)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	fillPattern(dst[chunkHeader:chunkSize-4], splitmix(uint64(uint32(blk))<<32|uint64(c)<<24^ver))
	binary.LittleEndian.PutUint32(dst[chunkSize-4:], crc32.ChecksumIEEE(dst[:chunkSize-4]))
}

// chunkVersion validates a chunk and returns its version.
func chunkVersion(src []byte, blk int32, c int) (uint64, error) {
	if crc32.ChecksumIEEE(src[:chunkSize-4]) != binary.LittleEndian.Uint32(src[chunkSize-4:]) {
		return 0, mismatchf("block %d chunk %d is torn (checksum)", blk, c)
	}
	if int32(binary.LittleEndian.Uint32(src[0:])) != blk || int(binary.LittleEndian.Uint16(src[4:])) != c {
		return 0, mismatchf("block %d chunk %d holds block %d chunk %d", blk, c,
			int32(binary.LittleEndian.Uint32(src[0:])), binary.LittleEndian.Uint16(src[4:]))
	}
	return binary.LittleEndian.Uint64(src[8:]), nil
}
