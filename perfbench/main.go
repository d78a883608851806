// Command perfbench is the repository's benchmark: one workload per run,
// closed-loop clients against an in-process acfcd (or the experiment
// harness, for des), every read checked against a reference model.
//
//	perfbench --workload replay --seed 1 --seconds 10 --trace 0
//
// It prints a table of metrics, a provenance line and, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the run's spans are written under
// .bench_build/spans. A read, durability or golden mismatch makes the
// run exit 1; so does a run that has no result after 170 s.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root
	work     string // scratch directory of this run
}

// daemonWorkloads are the workloads served through acfcd, with the
// GOMAXPROCS each runs at (0: one P per CPU).
//
// replay runs at one P. Most of its ops miss, and each fill hands off
// from the shard loop to a fill worker and back. On a small shared VM a
// hand-off across CPUs can wait for a descheduled virtual CPU when the
// host is busy: with two Ps its p99s moved by a third between runs
// minutes apart. At one P the client and the daemon share the P, so
// latencies include both sides' CPU time. hot keeps one P per CPU: a
// write landing while another session's reply still pins the block, the
// copy-on-write path it exists to drive, needs two things to happen at
// once. cluster runs at one P too: at one P per CPU a request often
// wakes a thread on the other CPU, and when the host is busy those
// wake-ups set its p99s, which then moved by a third between runs. At
// one P the phase rotates the process over the CPUs (rotateCPUs), so a
// run does not measure just the CPU it landed on (perfbench/NOTES.md).
var daemonWorkloads = map[string]struct {
	new   func() daemonWorkload
	procs int
}{
	"replay":  {func() daemonWorkload { return &replayWL{} }, 1},
	"hot":     {func() daemonWorkload { return &hotWL{} }, 0},
	"cluster": {func() daemonWorkload { return &clusterWL{} }, 1},
}

func runWorkload(o opts) (*result, error) {
	if dw, ok := daemonWorkloads[o.workload]; ok {
		return runDaemon(dw.new(), o)
	}
	return runDES(o)
}

func main() { os.Exit(run()) }

func run() int {
	o := opts{}
	flag.StringVar(&o.workload, "workload", "", "workload: replay, hot, cluster or des")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds one run measures")
	traceFlag := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	updateGolden := flag.Bool("update-golden", false, "des: rewrite the golden table and counters")
	setupOnlyN := flag.Int("setup-only", 0, "set the workload up this many times, print the times, exit (used by the run itself)")
	flag.Parse()
	o.trace = *traceFlag == 1
	_, ok := daemonWorkloads[o.workload]
	if !ok && o.workload != "des" || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	o.root = root
	if dw := daemonWorkloads[o.workload]; dw.procs > 0 {
		runtime.GOMAXPROCS(dw.procs)
	}
	if *updateGolden {
		if err := writeGolden(root); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	o.work = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.work)
	// Socket paths are relative to the run directory, so they stay short
	// and the cluster ring's member names are the same on every run.
	if err := os.Chdir(o.work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.Chdir(root)

	// A run that hangs is a failed run: give up well inside the time the
	// caller allows one.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after 170 s\n", o.workload)
		os.RemoveAll(o.work)
		os.Exit(1)
	})
	if *setupOnlyN > 0 {
		if err := setupOnly(daemonWorkloads[o.workload].new(), o, *setupOnlyN); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o)
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	correct := err == nil
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
	}
	res.prov["workload"] = o.workload
	res.prov["seed"] = o.seed
	res.prov["seconds"] = o.seconds
	res.prov["trace"] = o.trace
	res.prov["go"] = runtime.Version()
	res.prov["nproc"] = runtime.NumCPU()
	res.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.prov["commit"] = commit(root)
	res.prov["source_sha256"] = sourceHash(root)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	if err := res.report(os.Stdout, defs, correct); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	ns := []string{"des"}
	for n := range daemonWorkloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// commit reads the checked-out commit from .git when there is one.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(id))
}

// sourceHash is the SHA-256 over the paths and contents of every Go
// source and go.mod file of the checkout: the program and benchmark a
// result was measured with, where there is no git commit to name it.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
