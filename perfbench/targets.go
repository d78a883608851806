package main

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/server/client"
)

// target is what a session drives: the daemon over the wire (one
// client session or the cluster's routing client), or a core.Live
// called directly by the wire-less pass of the traced run.
type target interface {
	create(name string, d, size int) (fs.FileID, error)
	open(name string) (fs.FileID, error)
	read(f fs.FileID, blk int32, off, size int, dst []byte) error
	write(f fs.FileID, blk int32, off int, p []byte) error
	// ctl issues a replayed app's control or fbehavior call on file f.
	ctl(ev core.CtlEvent, f fs.FileID) error
	close() error
}

// opError is a kernel error a liveTarget call returned: the program
// failing one operation, like a non-OK status on the wire.
type opError struct{ error }

func (e opError) Unwrap() error { return e.error }

func kernelErr(err error) error {
	if err == nil {
		return nil
	}
	return opError{err}
}

// opFailed reports whether err is the program refusing or failing one
// operation, as opposed to a broken connection or a harness bug.
func opFailed(err error) bool {
	var se *client.StatusError
	var oe opError
	return errors.As(err, &se) || errors.As(err, &oe)
}

// wireConn is the call surface shared by client.Conn and cluster.Client.
type wireConn interface {
	Create(name string, d, sizeBlocks int) (client.File, error)
	Open(name string) (client.File, error)
	ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (bool, error)
	Write(f fs.FileID, blk int32, off int, payload []byte) (bool, error)
	Control(enable bool) error
	Fbehavior(op client.FbOp, a client.FbArgs) (client.FbResult, error)
	Close() error
}

var (
	_ wireConn = (*client.Conn)(nil)
	_ wireConn = (*cluster.Client)(nil)
)

type wireTarget struct{ c wireConn }

func (w wireTarget) create(name string, d, size int) (fs.FileID, error) {
	f, err := w.c.Create(name, d, size)
	return f.ID, err
}

func (w wireTarget) open(name string) (fs.FileID, error) {
	f, err := w.c.Open(name)
	return f.ID, err
}

func (w wireTarget) read(f fs.FileID, blk int32, off, size int, dst []byte) error {
	_, err := w.c.ReadInto(f, blk, off, size, dst)
	return err
}

func (w wireTarget) write(f fs.FileID, blk int32, off int, p []byte) error {
	_, err := w.c.Write(f, blk, off, p)
	return err
}

func (w wireTarget) ctl(ev core.CtlEvent, f fs.FileID) error {
	var err error
	switch ev.Op {
	case core.CtlControl:
		err = w.c.Control(ev.Enable)
	case core.CtlSetPriority:
		_, err = w.c.Fbehavior(client.FbSetPriority, client.FbArgs{File: f, Prio: ev.Prio})
	case core.CtlSetPolicy:
		_, err = w.c.Fbehavior(client.FbSetPolicy, client.FbArgs{Prio: ev.Prio, Policy: ev.Policy})
	case core.CtlSetTempPri:
		_, err = w.c.Fbehavior(client.FbSetTempPri, client.FbArgs{File: f, Start: ev.Start, End: ev.End, Prio: ev.Prio})
	default:
		err = fmt.Errorf("ctl op %v is not replayed", ev.Op)
	}
	return err
}

func (w wireTarget) close() error { return w.c.Close() }

// liveTarget calls core.Live kernels directly, one owner per target, with
// inline fills: every store call a kernel call makes happens inside it on
// this goroutine, so with a recorder each store span becomes a child of
// the core span that caused it. Several kernels stand for several cluster
// nodes; route picks a file's kernel by name, and file ids carry the
// kernel index in their low bits as the server's shard remap does.
type liveTarget struct {
	lives  []*core.Live
	owners []int
	route  func(name string) int
	// announce, when set, tells kernel i's base store the name of a
	// file it just created or opened (the cluster NodeStore needs it).
	announce func(i int, local fs.FileID, name string)
	rec      *recorder
	taps     []*tap
	reply    liveReply
}

type liveReply struct {
	dst  []byte
	off  int
	err  error
	done bool
}

func (r *liveReply) ReadDone(data []byte, hit bool, err error) {
	r.err, r.done = err, true
	if err == nil {
		copy(r.dst, data[r.off:])
	}
}

func (t *liveTarget) pick(f fs.FileID) (*core.Live, int, fs.FileID) {
	n := fs.FileID(len(t.lives))
	i := f % n
	return t.lives[i], t.owners[i], f / n
}

func (t *liveTarget) wire(i int, local fs.FileID) fs.FileID {
	return local*fs.FileID(len(t.lives)) + fs.FileID(i)
}

func (t *liveTarget) node(name string) int {
	if t.route == nil {
		return 0
	}
	return t.route(name)
}

// traced runs call as one core span named name.
func (t *liveTarget) traced(name string, call func()) {
	if t.rec == nil {
		call()
		return
	}
	req, id := t.rec.newID(), t.rec.newID()
	for _, tp := range t.taps {
		tp.req.Store(req)
		tp.parent.Store(id)
	}
	start := t.rec.now()
	call()
	t.rec.add(Span{Req: req, ID: id, Name: name, Start: start, End: t.rec.now()})
	for _, tp := range t.taps {
		tp.req.Store(0)
		tp.parent.Store(0)
	}
}

func (t *liveTarget) create(name string, d, size int) (fs.FileID, error) {
	i := t.node(name)
	f, err := t.lives[i].Create(t.owners[i], name, d, size)
	if err != nil {
		return 0, err
	}
	if t.announce != nil {
		t.announce(i, f.ID(), name)
	}
	return t.wire(i, f.ID()), nil
}

func (t *liveTarget) open(name string) (fs.FileID, error) {
	i := t.node(name)
	f, err := t.lives[i].Open(t.owners[i], name)
	if err != nil {
		return 0, err
	}
	if t.announce != nil {
		t.announce(i, f.ID(), name)
	}
	return t.wire(i, f.ID()), nil
}

func (t *liveTarget) read(f fs.FileID, blk int32, off, size int, dst []byte) error {
	l, owner, local := t.pick(f)
	t.reply = liveReply{dst: dst[:size], off: off}
	t.traced("core.read", func() { l.ReadTo(owner, local, blk, off, size, &t.reply) })
	if !t.reply.done {
		return errors.New("live read did not complete inline")
	}
	return kernelErr(t.reply.err)
}

func (t *liveTarget) write(f fs.FileID, blk int32, off int, p []byte) error {
	l, owner, local := t.pick(f)
	var werr error
	done := false
	t.traced("core.write", func() {
		l.Write(owner, local, blk, off, p, func(_ bool, err error) { werr, done = err, true })
	})
	if !done {
		return errors.New("live write did not complete inline")
	}
	return kernelErr(werr)
}

func (t *liveTarget) ctl(ev core.CtlEvent, f fs.FileID) error {
	l, owner, local := t.pick(f)
	switch ev.Op {
	case core.CtlControl:
		if ev.Enable {
			return kernelErr(l.EnableControl(owner))
		}
		return kernelErr(l.DisableControl(owner))
	case core.CtlSetPriority:
		return kernelErr(l.SetPriority(owner, local, ev.Prio))
	case core.CtlSetPolicy:
		return kernelErr(l.SetPolicy(owner, ev.Prio, ev.Policy))
	case core.CtlSetTempPri:
		return kernelErr(l.SetTempPri(owner, local, ev.Start, ev.End, ev.Prio))
	}
	return fmt.Errorf("ctl op %v is not replayed", ev.Op)
}

func (t *liveTarget) close() error { return nil }
