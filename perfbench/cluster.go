package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/stats"
)

const (
	clusterNodes   = 2
	clusterFiles   = 16
	clusterBlocks  = 205 // 16 × 205 blocks: about twice the two nodes' 2 × 819
	clusterRewrite = 10  // % of reads followed by a rewrite of the block
	clusterRounds  = 64  // generated scans over the file set; the stream repeats
)

// clusterServer is each node's configuration: read-ahead 8, write-behind 64.
func clusterServer() server.Config {
	k := core.LiveConfig{CacheBytes: core.MB(6.4), Alloc: cache.LRUSP, WallClock: true,
		ReadAhead: true, ReadAheadDepth: 8}
	return server.Config{Kernel: k, WritebackDepth: 64}
}

func clusterName(i int) string { return fmt.Sprintf("c/f%02d", i) }

// clusterMembers names the nodes of a cluster set up in dir by their
// socket paths relative to the run directory, so the ring, and with it
// which node owns which file, is the same on every run.
func clusterMembers(dir string) []string {
	members := make([]string, clusterNodes)
	for i := range members {
		members[i] = "unix:" + sockPath(dir, fmt.Sprintf("n%d.sock", i))
	}
	return members
}

// clusterWL: one routing-client session scans the file set file by
// file, each file front to back, in seed-chosen orders, rewriting a
// tenth of the blocks it reads. One client means every read has one
// right answer: the block's last acknowledged write.
type clusterWL struct {
	seed uint64
	ops  []uint32 // file<<24 | blk<<1 | write
}

func (w *clusterWL) config() map[string]any {
	return map[string]any{
		"origin": "cluster.DirOrigin", "nodes": clusterNodes, "alloc": "lru-sp", "cache_mb_per_node": 6.4,
		"writeback_depth": 64, "readahead": 8, "control": "off", "sessions": 1, "connections": clusterNodes,
		"files": clusterFiles, "file_blocks": clusterBlocks, "rewrite_pct": clusterRewrite,
	}
}

func (w *clusterWL) gen(seed uint64) (string, error) {
	w.seed = seed
	rng := rand.New(rand.NewSource(int64(seed)))
	h := sha256.New()
	fmt.Fprintf(h, "cluster seed=%d\n", seed)
	var b [4]byte
	emit := func(op uint32) {
		w.ops = append(w.ops, op)
		binary.LittleEndian.PutUint32(b[:], op)
		h.Write(b[:])
	}
	for r := 0; r < clusterRounds; r++ {
		for _, f := range rng.Perm(clusterFiles) {
			for blk := 0; blk < clusterBlocks; blk++ {
				op := uint32(f)<<24 | uint32(blk)<<1
				emit(op)
				if rng.Intn(100) < clusterRewrite {
					emit(op | 1)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// clusterModel holds every block's version: version v of a block is
// the pattern blockKey(seed, name, blk, v); version 0 is what set-up
// wrote into the origin.
type clusterModel struct {
	seed uint64
	ver  [][]uint64
	want []byte
}

func newClusterModel(seed uint64) *clusterModel {
	m := &clusterModel{seed: seed, want: make([]byte, blockSize)}
	m.ver = make([][]uint64, clusterFiles)
	for i := range m.ver {
		m.ver[i] = make([]uint64, clusterBlocks)
	}
	return m
}

// block writes version v of (file, blk) into dst.
func (m *clusterModel) block(dst []byte, file, blk int, v uint64) {
	fillPattern(dst, blockKey(m.seed, nameKey(clusterName(file)), int32(blk), v))
}

func (m *clusterModel) check(file, blk int, got []byte, what string) error {
	m.block(m.want, file, blk, m.ver[file][blk])
	if !bytes.Equal(got, m.want) {
		return mismatchf("%sfile %s block %d differs from version %d", what, clusterName(file), blk, m.ver[file][blk])
	}
	return nil
}

// populateOrigin writes version 0 of every file into the origin.
func (m *clusterModel) populateOrigin(o cluster.Origin) error {
	bufs := make([][]byte, clusterBlocks)
	for f := 0; f < clusterFiles; f++ {
		for blk := range bufs {
			if bufs[blk] == nil {
				bufs[blk] = make([]byte, blockSize)
			}
			m.block(bufs[blk], f, blk, 0)
		}
		if err := o.WriteRun(clusterName(f), 0, bufs); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

// checkOrigin reads every block back from a fresh handle on dir.
func (m *clusterModel) checkOrigin(dir string) error {
	o, err := cluster.NewDirOrigin(dir)
	if err != nil {
		return err
	}
	defer o.Close()
	got := make([]byte, blockSize)
	for f := 0; f < clusterFiles; f++ {
		for blk := 0; blk < clusterBlocks; blk++ {
			if err := o.ReadBlock(clusterName(f), int32(blk), got); err != nil {
				return err
			}
			if err := m.check(f, blk, got, "durability: "); err != nil {
				return err
			}
		}
	}
	return nil
}

// session creates the file set through t and returns the scanner.
func (w *clusterWL) session(t target) (*clusterSession, error) {
	s := &clusterSession{t: t, ops: w.ops, model: newClusterModel(w.seed), buf: make([]byte, blockSize)}
	for i := 0; i < clusterFiles; i++ {
		id, err := t.create(clusterName(i), 0, clusterBlocks)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", clusterName(i), err)
		}
		s.ids = append(s.ids, id)
	}
	return s, nil
}

// warmScan reads the whole file set once: set-up's cache warm-up.
func (s *clusterSession) warmScan() error {
	m := new(meter)
	for f := 0; f < clusterFiles; f++ {
		for blk := 0; blk < clusterBlocks; blk++ {
			if err := s.do(m, uint32(f)<<24|uint32(blk)<<1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *clusterWL) setup(dir string) (*rig, error) {
	odir := filepath.Join(dir, "origin")
	dor, err := cluster.NewDirOrigin(odir)
	if err != nil {
		return nil, err
	}
	tp := newTap("origin", nil)
	origin := &originTap{tap: tp, inner: dor}
	members := clusterMembers(dir)
	lns := make([]net.Listener, clusterNodes)
	for i, m := range members {
		if lns[i], err = net.Listen("unix", strings.TrimPrefix(m, "unix:")); err != nil {
			closeListeners(lns)
			return nil, err
		}
	}
	var nodes []*cluster.Node
	served := make(chan struct{}, clusterNodes)
	for i, m := range members {
		n, err := cluster.NewNode(cluster.NodeConfig{Self: m, Members: members, Origin: origin, Server: clusterServer()})
		if err != nil {
			closeListeners(lns[i:])
			leaveAll(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
		go func(ln net.Listener) {
			n.Srv.Serve(ln)
			served <- struct{}{}
		}(lns[i])
	}
	cl := cluster.NewClient(members, 0)
	stop := func() error {
		cl.Close()
		err := leaveAll(nodes)
		for range nodes {
			<-served
		}
		return err
	}
	s, err := w.session(wireTarget{cl})
	if err == nil {
		err = s.model.populateOrigin(dor)
	}
	if err == nil {
		err = s.warmScan()
	}
	if err != nil {
		stop()
		return nil, err
	}
	return &rig{
		sessions: []session{s},
		tap:      tp,
		kernel: func() (stats.Snapshot, error) {
			var snaps []stats.Snapshot
			for _, n := range nodes {
				m, ok := n.Srv.Metrics()
				if !ok {
					return stats.Snapshot{}, errors.New("node already shut down")
				}
				snaps = append(snaps, m.Kernel)
			}
			return stats.Aggregate(snaps), nil
		},
		abort: func() { stop() },
		finish: func() error {
			if err := stop(); err != nil {
				return err
			}
			return s.model.checkOrigin(odir)
		},
	}, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// leaveAll drains every node at once, then each flushes its dirty
// blocks to the origin and closes. The nodes' fill connections to each
// other are idle sessions that never disconnect on their own; the
// short grace severs them.
func leaveAll(nodes []*cluster.Node) error {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			errs[i] = n.Leave(ctx, false)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wireless runs the scan straight into one kernel per node, each over
// its own NodeStore on one shared origin, files routed by the same ring
// the wire run's nodes use.
func (w *clusterWL) wireless(dir string, rec *recorder, d time.Duration) (*phase, error) {
	odir := filepath.Join(dir, "origin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dor, err := cluster.NewDirOrigin(odir)
	if err != nil {
		return nil, err
	}
	tp := newTap("origin", nil)
	origin := &originTap{tap: tp, inner: dor}
	// The measured daemon is the last set-up's; route as its ring does.
	members := clusterMembers(filepath.Join(filepath.Dir(dir), "setup"))
	ring := cluster.NewRing(members, 0)
	lt := &liveTarget{taps: []*tap{tp}}
	var stores []*cluster.NodeStore
	for _, m := range members {
		ns := cluster.NewNodeStore(m, cluster.NewRing([]string{m}, 0), origin)
		k := clusterServer().Kernel
		k.Store = ns
		l := core.NewLive(k)
		stores = append(stores, ns)
		lt.lives = append(lt.lives, l)
		lt.owners = append(lt.owners, l.AddOwner("scan"))
	}
	lt.route = func(name string) int {
		owner := ring.Owner(name)
		for i, m := range members {
			if m == owner {
				return i
			}
		}
		return 0
	}
	lt.announce = func(i int, local fs.FileID, name string) { stores[i].Announce(int32(local), name) }
	s, err := w.session(lt)
	if err != nil {
		return nil, err
	}
	if err := s.model.populateOrigin(dor); err != nil {
		return nil, err
	}
	if err := s.warmScan(); err != nil {
		return nil, err
	}
	tp.rec.Store(rec)
	lt.rec = rec
	ph, err := runInline([]session{s}, d, 0)
	tp.rec.Store(nil)
	if err != nil {
		return nil, err
	}
	for _, l := range lt.lives {
		if _, err := l.FlushDirty(core.MaxTime); err != nil {
			return nil, err
		}
	}
	return ph, s.model.checkOrigin(odir)
}

type clusterSession struct {
	t     target
	ids   []fs.FileID
	ops   []uint32
	pos   int
	model *clusterModel
	buf   []byte
}

func (s *clusterSession) step(m *meter) error {
	op := s.ops[s.pos]
	s.pos = (s.pos + 1) % len(s.ops)
	return s.do(m, op)
}

func (s *clusterSession) do(m *meter, op uint32) error {
	f, blk := int(op>>24), int(op>>1&0x7FFFFF)
	if op&1 == 1 {
		v := s.model.ver[f][blk] + 1
		s.model.block(s.buf, f, blk, v)
		t0 := time.Now()
		err := s.t.write(s.ids[f], int32(blk), 0, s.buf)
		m.done(opWrite, t0, err)
		if err == nil {
			s.model.ver[f][blk] = v
		}
		return fatal(err)
	}
	t0 := time.Now()
	err := s.t.read(s.ids[f], int32(blk), 0, blockSize, s.buf)
	m.done(opRead, t0, err)
	if err != nil {
		return fatal(err)
	}
	return s.model.check(f, blk, s.buf, "")
}
