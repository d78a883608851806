package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/expt"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/workload"
)

// replayApps are the paper's apps each replay session runs, in an order
// the seed picks. The set is fixed so every seed measures the same
// traffic mix; it holds both apps that write (ldk, sort).
var replayApps = []string{"cs1", "din", "ldk", "sort"}

const (
	replaySessions = 2
	replayWarmOps  = 4000 // ops per session replayed during set-up
)

// kernel is acfcd's default kernel: lru-sp, 6.4 MB, no read-ahead.
func (w *replayWL) kernel(st disk.Store) core.LiveConfig {
	mb := w.cacheMB
	if mb == 0 {
		mb = 6.4
	}
	return core.LiveConfig{CacheBytes: core.MB(mb), Alloc: cache.LRUSP, Store: st, WallClock: true}
}

type replayWL struct {
	seed   uint64
	orders [][]string                 // per session: app order
	recs   map[string]*expt.Recording // per app: its transcript
	// wrap, when set, wraps the daemon's store, and cacheMB, when set,
	// sizes its cache: tests use them to inject faults quickly.
	wrap    func(disk.Store) disk.Store
	cacheMB float64
}

func (w *replayWL) config() map[string]any {
	return map[string]any{
		"store": "disk.FileStore", "alloc": "lru-sp", "cache_mb": 6.4, "shards": 1,
		"writeback_depth": 0, "readahead": 0, "fill_workers": "default",
		"sessions": replaySessions, "apps": w.orders, "mode": "smart",
	}
}

func (w *replayWL) gen(seed uint64) (string, error) {
	w.seed = seed
	rng := rand.New(rand.NewSource(int64(seed)))
	w.orders = make([][]string, replaySessions)
	for i := range w.orders {
		o := append([]string(nil), replayApps...)
		rng.Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
		w.orders[i] = o
	}
	w.recs = make(map[string]*expt.Recording)
	h := sha256.New()
	fmt.Fprintf(h, "replay seed=%d orders=%v\n", seed, w.orders)
	for _, app := range replayApps {
		rec := expt.Record(expt.RunSpec{
			Apps:    []expt.AppSpec{{Name: app, Make: expt.Registry[app], Mode: workload.Smart}},
			CacheMB: 6.4,
			Alloc:   cache.LRUSP,
			// Read-ahead I/O is untraced, so the transcript must not depend on it.
			Opts: expt.Options{ReadAheadOff: true},
		})
		w.recs[app] = rec
		var b [40]byte
		for _, ev := range rec.Events {
			if ev.IsCtl {
				c := ev.Ctl
				binary.LittleEndian.PutUint32(b[0:], uint32(c.Op))
				binary.LittleEndian.PutUint32(b[4:], uint32(c.File))
				binary.LittleEndian.PutUint32(b[8:], uint32(c.Size))
				binary.LittleEndian.PutUint32(b[12:], uint32(c.Prio))
				binary.LittleEndian.PutUint32(b[16:], uint32(c.Start))
				binary.LittleEndian.PutUint32(b[20:], uint32(c.End))
				h.Write(b[:24])
				h.Write([]byte(c.FileName))
			} else {
				a := ev.Access
				binary.LittleEndian.PutUint32(b[0:], uint32(a.File))
				binary.LittleEndian.PutUint32(b[4:], uint32(a.Block))
				binary.LittleEndian.PutUint32(b[8:], uint32(a.Off))
				binary.LittleEndian.PutUint32(b[12:], uint32(a.Size))
				if a.Write {
					b[16] = 1
				} else {
					b[16] = 0
				}
				h.Write(b[:17])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replayFile is one file a session created at set-up.
type replayFile struct {
	id   fs.FileID
	name string
	size int
}

// sessions builds the replay sessions over ts, creating each session's
// private files through its own target, and returns the files to
// populate.
func (w *replayWL) sessions(ts []target) ([]*replaySession, []replayFile, error) {
	var ss []*replaySession
	var files []replayFile
	for i, t := range ts {
		s := &replaySession{t: t, idx: i, seed: w.seed, model: newPrivateModel(w.seed),
			buf: make([]byte, blockSize), payload: make([]byte, blockSize)}
		for _, app := range w.orders[i] {
			rec := w.recs[app]
			ids := make(map[fs.FileID]fs.FileID)
			for _, ev := range rec.Events {
				if !ev.IsCtl || ev.Ctl.Op != core.CtlCreateFile {
					continue
				}
				c := ev.Ctl
				name := fmt.Sprintf("s%d/%s/%d-%s", i, app, c.File, c.FileName)
				id, err := t.create(name, c.Disk, c.Size)
				if err != nil {
					return nil, nil, fmt.Errorf("create %s: %w", name, err)
				}
				ids[c.File] = id
				s.model.addFile(id, name, c.Size)
				files = append(files, replayFile{id, name, c.Size})
			}
			s.apps = append(s.apps, rec.Events)
			s.ids = append(s.ids, ids)
		}
		ss = append(ss, s)
	}
	return ss, files, nil
}

// populate writes every block of files straight into the store, before
// any kernel reads it: the files' contents on disk.
func populate(st disk.BatchStore, seed uint64, files []replayFile) error {
	const batch = 64
	specs := make([]disk.BlockSpan, 0, batch)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, blockSize)
	}
	flush := func() error {
		for _, err := range st.WriteBlocks(specs, bufs[:len(specs)]) {
			if err != nil {
				return fmt.Errorf("populate: %w", err)
			}
		}
		specs = specs[:0]
		return nil
	}
	for _, f := range files {
		key := nameKey(f.name)
		for blk := int32(0); int(blk) < f.size; blk++ {
			fillPattern(bufs[len(specs)], blockKey(seed, key, blk, 0))
			specs = append(specs, disk.BlockSpan{File: int32(f.id), Blk: blk})
			if len(specs) == batch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if len(specs) > 0 {
		return flush()
	}
	return nil
}

func (w *replayWL) setup(dir string) (*rig, error) {
	fst, err := disk.NewFileStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	tp := newTap("disk", nil)
	var st disk.Store = fst
	if w.wrap != nil {
		st = w.wrap(st)
	}
	d, err := startDaemon(dir, server.Config{Kernel: w.kernel(tapStore(st, tp))})
	if err != nil {
		fst.Close()
		return nil, err
	}
	ts, err := d.dial(replaySessions)
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
	ss, files, err := w.sessions(ts)
	if err == nil {
		err = populate(fst, w.seed, files)
	}
	if err == nil {
		_, err = runPhase(asSessions(ss), 0, replayWarmOps, nil)
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
			for _, s := range ss {
				if _, err := s.model.checkStore(func(f fs.FileID, blk int32, dst []byte) error {
					return fst.ReadBlock(int32(f), blk, dst)
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func (w *replayWL) wireless(dir string, rec *recorder, d time.Duration) (*phase, error) {
	fst, err := newStoreIn(dir)
	if err != nil {
		return nil, err
	}
	defer fst.Close()
	tp := newTap("disk", nil)
	l := core.NewLive(w.kernel(tapStore(fst, tp)))
	ts := make([]target, replaySessions)
	lts := make([]*liveTarget, replaySessions)
	for i := range ts {
		lts[i] = &liveTarget{lives: []*core.Live{l}, owners: []int{l.AddOwner(fmt.Sprintf("s%d", i))}, taps: []*tap{tp}}
		ts[i] = lts[i]
	}
	ss, files, err := w.sessions(ts)
	if err != nil {
		return nil, err
	}
	if err := populate(fst, w.seed, files); err != nil {
		return nil, err
	}
	if _, err := runInline(asSessions(ss), 0, replayWarmOps); err != nil {
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
	for _, s := range ss {
		if _, err := s.model.checkStore(func(f fs.FileID, blk int32, dst []byte) error {
			return fst.ReadBlock(int32(f), blk, dst)
		}); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// replaySession replays its apps' transcripts one after another, over
// and over, on its private files. An app's control and fbehavior calls
// are issued as recorded; when an app ends, its cache manager goes away
// with it (control off). File creation happened at set-up, and removals
// are not replayed, so the next round finds the files in place.
type replaySession struct {
	t     target
	idx   int
	seed  uint64
	apps  [][]expt.ReplayEvent
	ids   []map[fs.FileID]fs.FileID // per app: recorded file id → target id
	model *privateModel

	app, ev    int
	controlled bool
	writes     uint64
	buf        []byte
	payload    []byte
}

func (s *replaySession) step(m *meter) error {
	evs := s.apps[s.app]
	if s.ev == len(evs) {
		s.ev = 0
		s.app = (s.app + 1) % len(s.apps)
		if !s.controlled {
			return nil
		}
		s.controlled = false
		t0 := time.Now()
		err := s.t.ctl(core.CtlEvent{Op: core.CtlControl, Enable: false}, 0)
		m.done(opCtl, t0, err)
		return fatal(err)
	}
	ev := evs[s.ev]
	s.ev++
	ids := s.ids[s.app]
	if ev.IsCtl {
		c := ev.Ctl
		if c.Op == core.CtlCreateFile || c.Op == core.CtlRemoveFile {
			return nil
		}
		t0 := time.Now()
		err := s.t.ctl(c, ids[c.File])
		m.done(opCtl, t0, err)
		if err == nil && c.Op == core.CtlControl {
			s.controlled = c.Enable
		}
		return fatal(err)
	}
	a := ev.Access
	f := ids[a.File]
	if a.Write {
		s.writes++
		p, key := s.payload[:a.Size], splitmix(s.seed^uint64(s.idx)<<56^s.writes)
		fillPattern(p, key)
		t0 := time.Now()
		err := s.t.write(f, a.Block, a.Off, p)
		m.done(opWrite, t0, err)
		if err == nil {
			s.model.applyWrite(f, a.Block, a.Off, a.Size, key)
		}
		return fatal(err)
	}
	t0 := time.Now()
	err := s.t.read(f, a.Block, a.Off, a.Size, s.buf)
	m.done(opRead, t0, err)
	if err != nil {
		return fatal(err)
	}
	return s.model.checkRead(f, a.Block, a.Off, s.buf[:a.Size])
}
