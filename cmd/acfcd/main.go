// Command acfcd is the application-controlled file cache daemon: the
// Live kernel — buffer cache, ACM, file namespace, block store — served
// to client processes over a unix or TCP socket, split into -shards
// independent replacement domains (files hash to shards at open time).
// Each connection is one owner/manager session; disconnecting releases
// the owner's blocks.
//
// Usage:
//
//	acfcd -listen unix:/tmp/acfcd.sock [-metrics 127.0.0.1:9090]
//	      [-pprof 127.0.0.1:6060]
//	      [-cache-mb 6.4] [-alloc lru-sp] [-adapt-alloc global-lru,arc]
//	      [-store mem|/path/to/file]
//	      [-shards 1] [-idle 2m] [-inflight 32] [-evict-on-close]
//	      [-check-invariants] [-writeback-depth 0] [-readahead 0]
//	      [-store-latency 0] [-store-jitter 0]
//	      [-cluster tcp:h1:p1,tcp:h2:p2,...] [-origin mem|dir:/path]
//	      [-ring-replicas 128]
//
// -alloc names any policy in the kernel's registry (cache.AllocNames:
// global-lru, lru-sp, lru-s, alloc-lru, arc, awrp); clients can re-point
// a live daemon with the set_alloc wire op. -adapt-alloc instead hands
// each shard's policy to the online adapter, which samples the listed
// candidates by windowed hit ratio and settles on the best.
//
// With -cluster, the daemon joins a static multi-node tier: the member
// list (which must include this node's -listen spec) is hashed into a
// consistent-hash ring, files route to their owning node, and local
// misses pull through a warm peer or the shared -origin. SIGINT/SIGTERM
// then run the planned-leave protocol: drain, flush dirty blocks to the
// origin, stream hot blocks to the new hash owners, exit.
//
// Without -cluster, SIGINT/SIGTERM drain gracefully: in-flight requests
// finish, new ones are refused, and the kernel flushes dirty blocks
// before exit. The single-node path is untouched by cluster mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers the /debug/pprof handlers
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	listenFlag := flag.String("listen", "unix:/tmp/acfcd.sock", "listen address: unix:/path or tcp:host:port")
	metricsFlag := flag.String("metrics", "", "HTTP /metrics listen address (empty: disabled)")
	pprofFlag := flag.String("pprof", "", "HTTP net/http/pprof listen address (empty: disabled)")
	cacheFlag := flag.Float64("cache-mb", 6.4, "cache size in MB")
	allocFlag := flag.String("alloc", "lru-sp", fmt.Sprintf("allocation policy: %v", cache.AllocNames()))
	adaptFlag := flag.String("adapt-alloc", "", "comma-separated candidate policies for the per-shard online adapter (empty: off)")
	adaptEveryFlag := flag.Int64("adapt-every", 0, "adapter epoch length in completed hit windows (0: default 4)")
	adaptHystFlag := flag.Int64("adapt-hysteresis-bp", 0, "adapter switch threshold in basis points of hit ratio (0: default 200)")
	storeFlag := flag.String("store", "mem", "block store: mem, or a backing file path")
	idleFlag := flag.Duration("idle", 2*time.Minute, "session idle timeout")
	inflightFlag := flag.Int("inflight", 32, "max pipelined requests per session")
	evictFlag := flag.Bool("evict-on-close", false, "evict (write back) a closing session's blocks instead of disowning them")
	invFlag := flag.Bool("check-invariants", false, "run kernel invariant checks after every session close")
	shardsFlag := flag.Int("shards", 1, "independent kernel shards (files hash to shards at open)")
	graceFlag := flag.Duration("grace", 10*time.Second, "shutdown drain grace before forcing disconnects")
	wbDepthFlag := flag.Int("writeback-depth", 0, "async write-behind queue depth per shard (0: synchronous write-backs)")
	raFlag := flag.Int("readahead", 0, "server-side sequential read-ahead depth (0: disabled)")
	storeLatFlag := flag.Duration("store-latency", 0, "per-op latency injected into the mem store (benchmarking)")
	storeJitFlag := flag.Duration("store-jitter", 0, "max extra random latency per mem-store op")
	clusterFlag := flag.String("cluster", "", "comma-separated member list (incl. this node's -listen spec); empty: single-node mode")
	originFlag := flag.String("origin", "mem", "cluster origin: mem (per-process; testing only) or dir:/shared/path")
	replicasFlag := flag.Int("ring-replicas", 0, "virtual nodes per member on the hash ring (0: default 128)")
	flag.Parse()

	alloc, err := cache.ParseAlloc(*allocFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
		return 2
	}
	var adaptAlloc []string
	if *adaptFlag != "" {
		adaptAlloc = strings.Split(*adaptFlag, ",")
		for _, name := range adaptAlloc {
			if _, err := cache.ParseAlloc(name); err != nil {
				fmt.Fprintf(os.Stderr, "acfcd: -adapt-alloc: %v\n", err)
				return 2
			}
		}
	}
	var store disk.Store
	if *storeFlag != "mem" {
		if *storeLatFlag > 0 || *storeJitFlag > 0 {
			fmt.Fprintln(os.Stderr, "acfcd: -store-latency/-store-jitter only apply to -store mem")
			return 2
		}
		fst, err := disk.NewFileStore(*storeFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: store: %v\n", err)
			return 1
		}
		store = fst
	} else if *storeLatFlag > 0 || *storeJitFlag > 0 {
		ms := disk.NewMemStore()
		ms.SetLatency(*storeLatFlag, *storeJitFlag)
		store = ms
	}

	scfg := server.Config{
		Kernel: core.LiveConfig{
			CacheBytes:     core.MB(*cacheFlag),
			Alloc:          alloc,
			Store:          store,
			EvictOnRelease: *evictFlag,
			ReadAhead:      *raFlag > 0,
			ReadAheadDepth: *raFlag,
			WallClock:      true,
		},
		Shards:            *shardsFlag,
		WritebackDepth:    *wbDepthFlag,
		MaxInflight:       *inflightFlag,
		IdleTimeout:       *idleFlag,
		CheckInvariants:   *invFlag,
		AdaptAlloc:        adaptAlloc,
		AdaptEvery:        *adaptEveryFlag,
		AdaptHysteresisBP: *adaptHystFlag,
	}

	// Cluster mode swaps the base store for the cluster tier's NodeStore;
	// the single-node path below is byte-for-byte the non-cluster daemon.
	var node *cluster.Node
	srv := (*server.Server)(nil)
	if *clusterFlag != "" {
		if store != nil {
			fmt.Fprintln(os.Stderr, "acfcd: -store/-store-latency do not combine with -cluster (the shared -origin is the backing tier)")
			return 2
		}
		var origin cluster.Origin
		switch {
		case *originFlag == "mem":
			origin = cluster.NewMemOrigin()
		case strings.HasPrefix(*originFlag, "dir:"):
			var err error
			origin, err = cluster.NewDirOrigin(strings.TrimPrefix(*originFlag, "dir:"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
				return 1
			}
		default:
			fmt.Fprintf(os.Stderr, "acfcd: bad -origin %q (want mem or dir:/path)\n", *originFlag)
			return 2
		}
		members := strings.Split(*clusterFlag, ",")
		n, err := cluster.NewNode(cluster.NodeConfig{
			Self:     *listenFlag,
			Members:  members,
			Origin:   origin,
			Replicas: *replicasFlag,
			Server:   scfg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
			return 1
		}
		node = n
		srv = n.Srv
	} else {
		srv = server.New(scfg)
	}

	ln, err := listen(*listenFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: %v\n", err)
		return 1
	}
	if node != nil {
		fmt.Fprintf(os.Stderr, "acfcd: serving on %s (%s, %.1f MB cache, %d shard(s), cluster of %d, origin %s)\n",
			ln.Addr(), *allocFlag, *cacheFlag, srv.Shards(), node.Ring().Len(), *originFlag)
	} else {
		fmt.Fprintf(os.Stderr, "acfcd: serving on %s (%s, %.1f MB cache, %d shard(s), store %s)\n",
			ln.Addr(), *allocFlag, *cacheFlag, srv.Shards(), *storeFlag)
	}

	if *metricsFlag != "" {
		mln, err := net.Listen("tcp", *metricsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: metrics: %v\n", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go http.Serve(mln, mux)
		fmt.Fprintf(os.Stderr, "acfcd: metrics on http://%s/metrics\n", mln.Addr())
	}

	if *pprofFlag != "" {
		pln, err := net.Listen("tcp", *pprofFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: pprof: %v\n", err)
			return 1
		}
		// nil handler = http.DefaultServeMux, where the pprof import
		// registered /debug/pprof; kept off the -metrics mux so the
		// profiling port can stay loopback-only.
		go http.Serve(pln, nil)
		fmt.Fprintf(os.Stderr, "acfcd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "acfcd: %v: draining (%v grace)\n", sig, *graceFlag)
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: serve: %v\n", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *graceFlag)
	defer cancel()
	if node != nil {
		// Planned leave: drain, flush dirty to the origin, stream hot
		// blocks to their new hash owners, release the peer connections.
		if err := node.Leave(ctx, true); err != nil {
			fmt.Fprintf(os.Stderr, "acfcd: leave: %v\n", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "acfcd: left the cluster, bye")
		return 0
	}
	srv.Shutdown(ctx)
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "acfcd: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "acfcd: drained, bye")
	return 0
}

// listen parses "unix:/path" or "tcp:addr" and listens. A stale unix
// socket from an unclean previous exit is removed first.
func listen(spec string) (net.Listener, error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || (network != "unix" && network != "tcp") {
		return nil, fmt.Errorf("bad -listen %q (want unix:/path or tcp:host:port)", spec)
	}
	if network == "unix" {
		if _, err := os.Stat(addr); err == nil {
			if c, err := net.Dial("unix", addr); err == nil {
				c.Close()
				return nil, fmt.Errorf("%s: already in use", addr)
			}
			os.Remove(addr)
		}
	}
	return net.Listen(network, addr)
}
