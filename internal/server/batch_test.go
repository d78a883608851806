package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/stats"
)

// fillsGolden is the recorded outcome of runDiffWorkload, in
// testdata/batched_fills.golden.json. It was captured from the
// goroutine-per-fill executor with synchronous write-backs — one
// single-block store read per miss, the pre-batching server — before
// that executor was deleted, so the batched fill path is still checked
// against it, as data.
type fillsGolden struct {
	ReadFNV        string         `json:"read_fnv"`  // FNV-64a over every byte every read returned, in order
	StoreFNV       []string       `json:"store_fnv"` // FNV-64a of each block's final store contents
	Proc           core.ProcStats `json:"proc"`      // the session's counters
	StoreReads     int64          `json:"store_reads"`
	PrefetchIssued int64          `json:"prefetch_issued"`
	PrefetchHits   int64          `json:"prefetch_hits"`
}

// diffOutcome is everything one run of the differential workload
// produces: the golden's fields plus the fill pipeline counters.
type diffOutcome struct {
	fillsGolden
	fill stats.FillStats
}

func fnvHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// runDiffWorkload drives one deterministic single-client workload —
// sequential whole-block writes, a sequential scan under read-ahead,
// strided re-reads, partial read-modify-writes — against a fresh server
// and returns everything observable: the bytes every read produced, the
// session and fill counters, and the final store contents.
func runDiffWorkload(t *testing.T, wbDepth int) diffOutcome {
	t.Helper()
	const blocks = 64
	ms := disk.NewMemStore()
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			CacheBytes:     16 * core.BlockSize,
			Store:          ms,
			ReadAhead:      true,
			ReadAheadDepth: 4,
		},
		WritebackDepth: wbDepth,
	})
	c := dial()
	defer c.Close()

	f, err := c.Create("diff", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	block := make([]byte, core.BlockSize)

	// Phase 1: dirty every block; the 16-block cache forces a steady
	// stream of dirty victims through the write-back path.
	for b := int32(0); b < blocks; b++ {
		for i := range block {
			block[i] = byte(int32(i) + b*13)
		}
		if _, err := c.Write(f.ID, b, 0, block); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
	}
	// Phase 2: sequential scan; read-ahead issues runs, and early fills
	// race the still-draining write-backs (the forwarding path).
	for b := int32(0); b < blocks; b++ {
		data, _, err := c.Read(f.ID, b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		h.Write(data)
	}
	// Phase 3: strided re-reads (breaks the sequential detector) and
	// partial rewrites of cold blocks (read-modify-write fills).
	for b := int32(0); b < blocks; b += 3 {
		data, _, err := c.Read(f.ID, b, 5, 100)
		if err != nil {
			t.Fatalf("strided read %d: %v", b, err)
		}
		h.Write(data)
	}
	for b := int32(1); b < blocks; b += 7 {
		if _, err := c.Write(f.ID, b, 9, []byte{byte(b), 0xee, byte(b)}); err != nil {
			t.Fatalf("partial write %d: %v", b, err)
		}
	}
	// One more pass so the rewrites are observed through the cache too.
	for b := int32(0); b < blocks; b++ {
		data, _, err := c.Read(f.ID, b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("final read %d: %v", b, err)
		}
		h.Write(data)
	}

	// A write-back is charged to the session when it completes, and
	// under write-behind the last few may still be queued when the final
	// read returns. Each queued write-back is charged exactly once, so
	// wait for the session's WriteBacks to catch up with the kernel's
	// WritebacksQueued (zero without write-behind) before snapshotting.
	var st server.StatsReply
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err = c.Stats(); err != nil {
			t.Fatal(err)
		}
		if st.Session.WriteBacks >= st.Kernel.Fill.WritebacksQueued || time.Now().After(deadline) {
			break
		}
	}
	fill := st.Kernel.Fill
	out := diffOutcome{fill: fill, fillsGolden: fillsGolden{
		ReadFNV:        fnvHex(h.Sum64()),
		Proc:           st.Session,
		StoreReads:     fill.StoreReads,
		PrefetchIssued: fill.PrefetchIssued,
		PrefetchHits:   fill.PrefetchHits,
	}}

	c.Close()
	shutdownAndClose(t, srv)
	dst := make([]byte, core.BlockSize)
	for b := int32(0); b < blocks; b++ {
		if err := ms.ReadBlock(int32(f.ID), b, dst); err != nil {
			t.Fatal(err)
		}
		h.Reset()
		h.Write(dst)
		out.StoreFNV = append(out.StoreFNV, fnvHex(h.Sum64()))
	}
	return out
}

// TestBatchedFillsDifferential pins the batched fill path to the
// golden single-block outcome: the same workload through the worker
// pool, with synchronous write-backs and with the batching flusher,
// must return the same bytes on every read, leave the same bytes on the
// store, and agree on every deterministic counter. The only licensed
// difference in store traffic is *who* performs the reads: write-behind
// forwarding replaces store reads one-for-one, so StoreReads +
// WritebackHits = golden StoreReads.
//
// If this test fails after an intentional change to the workload or the
// kernel's accounting, re-record the golden from the logged outcome;
// any other failure is a behavior regression on the fill path.
func TestBatchedFillsDifferential(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "batched_fills.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want fillsGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, wbDepth := range []int{0, 16} {
		t.Run(fmt.Sprintf("writeback=%d", wbDepth), func(t *testing.T) {
			got := runDiffWorkload(t, wbDepth)
			defer func() {
				if t.Failed() {
					rec, _ := json.MarshalIndent(got.fillsGolden, "", "  ")
					t.Logf("outcome:\n%s", rec)
				}
			}()

			if got.ReadFNV != want.ReadFNV {
				t.Errorf("read stream FNV = %s, golden %s", got.ReadFNV, want.ReadFNV)
			}
			for b := range want.StoreFNV {
				if b >= len(got.StoreFNV) || got.StoreFNV[b] != want.StoreFNV[b] {
					t.Errorf("final store contents differ at block %d", b)
				}
			}
			if got.Proc != want.Proc {
				t.Errorf("session counters differ:\n golden %+v\n got    %+v", want.Proc, got.Proc)
			}
			if n := got.StoreReads + got.fill.WritebackHits; n != want.StoreReads {
				t.Errorf("StoreReads+WritebackHits = %d, golden StoreReads %d", n, want.StoreReads)
			}
			if got.PrefetchIssued != want.PrefetchIssued {
				t.Errorf("PrefetchIssued = %d, golden %d", got.PrefetchIssued, want.PrefetchIssued)
			}
			if got.PrefetchHits != want.PrefetchHits {
				t.Errorf("PrefetchHits = %d, golden %d", got.PrefetchHits, want.PrefetchHits)
			}
			// Whether a demand read finds its read-ahead fill still in
			// flight is a race between the client and the fill workers,
			// so CoalescedMisses is not deterministic. With one serial
			// client the only fill in flight when a request arrives is a
			// read-ahead fill, and the coalescing access is that
			// prefetched block's first touch (the same access counts the
			// prefetch hit), so the count is bounded by PrefetchHits.
			if c := got.fill.CoalescedMisses; c < 0 || c > got.PrefetchHits {
				t.Errorf("CoalescedMisses = %d, want within [0, PrefetchHits = %d]", c, got.PrefetchHits)
			}

			// The run must actually have batched: multi-block runs hit
			// the store, and the queue was ever nonempty.
			if got.fill.BatchedFills == 0 {
				t.Error("no multi-block fill batches issued")
			}
			if got.fill.FillBatchBlocks < 2*got.fill.BatchedFills {
				t.Errorf("FillBatchBlocks = %d with %d batches; every batch must carry >= 2 blocks",
					got.fill.FillBatchBlocks, got.fill.BatchedFills)
			}
			if got.fill.FillQueueHighWater == 0 {
				t.Error("FillQueueHighWater = 0; fills never queued")
			}
			if wbDepth == 0 && got.fill.WritebackBatches != 0 {
				t.Errorf("WritebackBatches = %d with write-behind off", got.fill.WritebackBatches)
			}
		})
	}
}

// TestFillBatchSyscalls is the syscall-count regression gate from the
// issue: a sequential scan under depth-K read-ahead against a FileStore
// must cost ~2 store calls per K blocks — the windowed scheduler
// refills half the window at a time and each refill must reach the
// store as one vectored read. An unbatched fill path costs one call per
// block and fails this bound by 4x.
func TestFillBatchSyscalls(t *testing.T) {
	const (
		blocks = 256
		depth  = 8
	)
	fs, err := disk.NewFileStore(filepath.Join(t.TempDir(), "store.dat"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, dial := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			Store:          fs,
			ReadAhead:      true,
			ReadAheadDepth: depth,
		},
	})
	c := dial()
	defer c.Close()
	f, err := c.Create("seq", 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the store out of band with one batched write: run-aware
	// slot allocation lands the 256 sequential blocks in sequential
	// slots, the layout the scan's preadv runs need. (Shards=1, so the
	// wire file id is the store's file id.)
	specs := make([]disk.BlockSpan, blocks)
	srcs := make([][]byte, blocks)
	for b := range specs {
		specs[b] = disk.BlockSpan{File: int32(f.ID), Blk: int32(b)}
		srcs[b] = bytes.Repeat([]byte{byte(b)}, core.BlockSize)
	}
	for i, err := range fs.WriteBlocks(specs, srcs) {
		if err != nil {
			t.Fatalf("populate[%d]: %v", i, err)
		}
	}
	r0, v0, _, _ := fs.IOCounts()

	for b := int32(0); b < blocks; b++ {
		data, _, err := c.Read(f.ID, b, 0, core.BlockSize)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if data[0] != byte(b) || data[core.BlockSize-1] != byte(b) {
			t.Fatalf("block %d: wrong bytes", b)
		}
	}

	sr, vr, _, _ := fs.IOCounts()
	total := (sr - r0) + (vr - v0)
	// Expected shape: 2 scalar demand reads (blocks 0 and 1, before the
	// detector fires), one depth-sized opening run, then a half-window
	// refill every depth/2 blocks — about blocks/(depth/2) calls. The
	// bound allows 2 calls per K-block window plus slack for clamped
	// tail refills; the unbatched path's ~256 calls fails it by 4x.
	bound := int64(2*(blocks/depth) + 8)
	if total > bound {
		t.Errorf("sequential %d-block scan at depth %d cost %d store read calls (%d scalar + %d vectored), want <= %d",
			blocks, depth, total, sr-r0, vr-v0, bound)
	}
	if vr-v0 == 0 {
		t.Error("no vectored reads issued; read-ahead runs are not reaching preadv")
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok")
	}
	if m.Kernel.Fill.BatchedFills == 0 {
		t.Error("BatchedFills = 0 after a read-ahead scan")
	}
}
