// batch.go — the optional vectored face of a Store.
//
// The fill workers and the write-behind flusher coalesce adjacent blocks
// into runs; a backend that can retire a run in one operation exposes
// BatchStore and gets handed the whole run. Backends that can't (or test
// wrappers that deliberately don't) are driven block-at-a-time by the
// ReadBatch/WriteBatch helpers, so callers never branch on the concrete
// store type.

package disk

// BlockSpan names one block of a batched store request. A batch is a
// flat list of spans plus a parallel list of BlockSize buffers; the
// store decides which spans actually land adjacent on media.
type BlockSpan struct {
	File int32
	Blk  int32
}

// BatchStore is the optional vectored interface a Store may implement.
// Both methods take parallel slices (len(specs) == len(bufs)) and
// return a per-span error slice of the same length, nil entries meaning
// success. A batch is not atomic: some spans may succeed while others
// fail, and callers must consult every entry.
type BatchStore interface {
	// ReadBlocks fills dsts[i] (len BlockSize) with the contents of
	// specs[i]. Unwritten blocks read as zeros, like ReadBlock.
	ReadBlocks(specs []BlockSpan, dsts [][]byte) []error
	// WriteBlocks persists srcs[i] (len BlockSize) as specs[i]'s
	// contents. When one batch names the same block twice, the later
	// span wins, matching sequential WriteBlock calls.
	WriteBlocks(specs []BlockSpan, srcs [][]byte) []error
}

// ReadBatch reads a batch through s, using the vectored path when s
// implements BatchStore and a per-block ReadBlock loop otherwise. The
// fallback keeps plain Store implementations (and counting test
// wrappers) semantically identical to the batched path.
func ReadBatch(s Store, specs []BlockSpan, dsts [][]byte) []error {
	if bs, ok := s.(BatchStore); ok {
		return bs.ReadBlocks(specs, dsts)
	}
	errs := make([]error, len(specs))
	for i, sp := range specs {
		errs[i] = s.ReadBlock(sp.File, sp.Blk, dsts[i])
	}
	return errs
}

// WriteBatch writes a batch through s, vectored when possible, looped
// otherwise.
func WriteBatch(s Store, specs []BlockSpan, srcs [][]byte) []error {
	if bs, ok := s.(BatchStore); ok {
		return bs.WriteBlocks(specs, srcs)
	}
	errs := make([]error, len(specs))
	for i, sp := range specs {
		errs[i] = s.WriteBlock(sp.File, sp.Blk, srcs[i])
	}
	return errs
}

// EachRun splits specs into runs of same-file consecutive blocks and
// calls f with each run's [lo, hi) range, in order. A run extends only
// while the next span is in the same file and exactly one block past
// the previous, so a repeated block number starts a new run. Sorted
// input yields maximal runs; unsorted input still splits correctly,
// just into more runs.
func EachRun(specs []BlockSpan, f func(lo, hi int)) {
	for i := 0; i < len(specs); {
		j := i + 1
		for j < len(specs) && specs[j].File == specs[i].File && specs[j].Blk == specs[j-1].Blk+1 {
			j++
		}
		f(i, j)
		i = j
	}
}
