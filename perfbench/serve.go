package main

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/stats"
)

// daemon is one in-process acfcd server listening on a unix socket.
type daemon struct {
	srv    *server.Server
	sock   string
	served chan struct{}
}

// sockPath is dir/name relative to the working directory, which keeps
// socket paths short and the same from run to run.
func sockPath(dir, name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil {
			dir = rel
		}
	}
	return filepath.Join(dir, name)
}

func startDaemon(dir string, cfg server.Config) (*daemon, error) {
	d := &daemon{srv: server.New(cfg), sock: sockPath(dir, "acfcd.sock"), served: make(chan struct{})}
	ln, err := net.Listen("unix", d.sock)
	if err != nil {
		d.srv.Shutdown(context.Background())
		return nil, err
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// dial opens n client sessions.
func (d *daemon) dial(n int) ([]target, error) {
	var ts []target
	for i := 0; i < n; i++ {
		c, err := client.Dial("unix", d.sock)
		if err != nil {
			closeAll(ts)
			return nil, err
		}
		ts = append(ts, wireTarget{c})
	}
	return ts, nil
}

func (d *daemon) kernel() (stats.Snapshot, error) {
	m, ok := d.srv.Metrics()
	if !ok {
		return stats.Snapshot{}, errors.New("daemon already shut down")
	}
	return m.Kernel, nil
}

// stop drains the daemon, then flushes its dirty blocks and closes it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.served
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

func closeAll(ts []target) {
	for _, t := range ts {
		t.close()
	}
}

// newStoreIn creates dir and a fresh FileStore in it.
func newStoreIn(dir string) (*disk.FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return disk.NewFileStore(filepath.Join(dir, "store"))
}
