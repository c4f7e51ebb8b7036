// Command svcbench is the repository's host-clock benchmark of the public
// BFS service API (gcbfs.Service and gcbfs.MutableService).
//
// One run builds one workload's inputs from a seed, constructs the service
// several times (setup_s), answers every pool source once to fill caches and
// read the deterministic simulated figures, then drives a closed loop of two
// clients for the given number of seconds. Every answer is checked against
// serial BFS on the graph of the epoch it reports. With -trace 1 the run adds
// a traced window and the per-layer probes, and writes the spans as Chrome
// trace-event JSON.
//
// Usage, from the repository root:
//
//	bash svcbench/run.sh --workload rmat-run --seed 1 --seconds 10 --trace 0
//	bash svcbench/run.sh --list
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the per-layer
// ones), each metric a value and a unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gcbfs"
	"gcbfs/internal/g500"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of each measured window, seconds")
		trace   = flag.Int("trace", 0, "1: add a traced window and the per-layer probes")
		outDir  = flag.String("out", ".bench_out", "directory for the trace file")
		list    = flag.Bool("list", false, "print the workloads and metrics, then exit")
	)
	flag.Parse()
	if *list {
		printCatalog(os.Stdout)
		return
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// warmSweeps is how many distinct batches the sweep workload's warm-up runs.
const warmSweeps = 8

// A run constructs the service at least setupRepeats times and until
// setupMinSeconds have passed, at most setupMaxRepeats times; setup_s is the
// median.
const (
	setupRepeats    = 5
	setupMinSeconds = 1.0
	setupMaxRepeats = 50
)

// run performs one benchmark run.
func run(w *workload, seed uint64, dur time.Duration, traced bool, outDir string) (*report, error) {
	ctx := context.Background()
	rep := newReport(w, seed, traced)
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	rep.setMachine(in)
	// The benchmark's own inputs and references stay live all run; heap_mb
	// counts what the service adds on top of them.
	runtime.GC()
	inputsHeap := liveHeap()

	cfg := w.Config(w.Cluster)
	var tr *tracer
	if traced {
		tr = newTracer(clients + 1)
	}
	svc, mut, setup, err := construct(in, cfg, w.Load == loadMutate)
	if err != nil {
		return nil, err
	}
	var q querier = svc
	var th int64
	if mut != nil {
		q, th = mut, mut.Threshold()
	} else {
		th = svc.Threshold()
	}

	// Warm-up: every pool source answered once, untimed. It fills the
	// session pools and gives the simulated figures, which depend only on
	// the seed.
	warm, tl, err := warmUp(ctx, w, in, q)
	if err != nil {
		return nil, err
	}
	rep.tally.add(tl)

	// A traced run splits its time between an untraced and a traced window,
	// so it takes as long as an untraced one.
	winDur := dur
	if traced {
		winDur = dur / 2
	}
	base := loop(ctx, w, in, q, mut, winDur, nil)
	rep.tally.add(base.tally)
	rep.tally.add(checkTrees(in, base.trees))
	rep.setEndToEnd(w, setup, warm, base, inputsHeap)

	if traced {
		tw := loop(ctx, w, in, q, mut, winDur, tr)
		rep.tally.add(tw.tally)
		rep.tally.add(checkTrees(in, tw.trees))
		if mut != nil && in.graphIndex(mut.Epoch()) != 0 {
			// Probe the graph version the benchmark's own plans hold.
			rep.tally.attempted++
			if _, err := mut.ApplyDelta(in.nextDelta(mut.Epoch())); err != nil {
				return nil, fmt.Errorf("restore the initial graph: %w", err)
			}
		}
		pl, tl, err := probe(ctx, w, in, cfg, q, th, warm, tr)
		if err != nil {
			return nil, err
		}
		rep.tally.add(tl)
		rep.setPerLayer(w, base, tw, pl, tr)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
		if err := writeChrome(path, tr.spans()); err != nil {
			return nil, err
		}
		rep.tracePath = path
	}
	return rep, nil
}

// construct builds the service repeatedly and keeps the last, returning the
// wall time of each construction in seconds.
func construct(in *inputs, cfg gcbfs.Config, mutable bool) (*gcbfs.Service, *gcbfs.MutableService, []float64, error) {
	var (
		svc   *gcbfs.Service
		mut   *gcbfs.MutableService
		times []float64
	)
	spent := 0.0
	for len(times) < setupRepeats || (spent < setupMinSeconds && len(times) < setupMaxRepeats) {
		svc, mut = nil, nil
		runtime.GC() // each construction starts from the same collected heap
		t0 := time.Now()
		var err error
		if mutable {
			mut, err = gcbfs.NewMutableService(in.g, cfg)
		} else {
			svc, err = gcbfs.NewService(in.g, cfg)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("construct service: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[len(times)-1]
	}
	return svc, mut, times, nil
}

// warmUp answers every pool source once, checks the answers and returns
// them with their per-vertex arrays dropped.
func warmUp(ctx context.Context, w *workload, in *inputs, q querier) (warm []*gcbfs.Result, tl tally, err error) {
	chk := checker{in: in, parents: w.Parents}
	keep := func(r *gcbfs.Result) {
		c := *r
		c.Levels, c.Parents = nil, nil
		warm = append(warm, &c)
	}
	if w.Load == loadSweep {
		// A sweep's simulated time is shared by its lanes, so each batch
		// gives one rate: warmSweeps batches keep sim_gteps from resting
		// on one or two of them.
		for k := range warmSweeps {
			batch := sweepBatch(in.sources, k)
			tl.attempted++
			br, err := q.RunSweep(ctx, batch)
			if err == nil {
				err = checkSweep(chk, batch, br)
			}
			if err != nil {
				return nil, tl, fmt.Errorf("warm-up sweep: %w", err)
			}
			for _, r := range br.Results {
				keep(r)
			}
		}
		return warm, tl, nil
	}
	for _, s := range in.sources {
		tl.attempted++
		res, err := q.Run(ctx, s)
		if err == nil {
			err = chk.check(res)
		}
		if err != nil {
			return nil, tl, fmt.Errorf("warm-up Run(%d): %w", s, err)
		}
		keep(res)
	}
	return warm, tl, nil
}

// checkTrees applies the Graph500 tree rules to the first answer the window
// saw for each graph version and source (answers are checked against the
// canonical reference bit for bit as they arrive; this adds the rules).
func checkTrees(in *inputs, trees map[treeKey]*gcbfs.Result) tally {
	var tl tally
	for k, r := range trees {
		if err := g500.ValidateTree(in.els[k.graph], r.Source, r.Parents, r.Levels); err != nil {
			tl.fail(fmt.Sprintf("tree of source %d on graph version %d: %v", r.Source, k.graph, err))
		}
	}
	return tl
}

// printCatalog lists the workloads and every metric with its unit and, for
// per-layer metrics, what it should move and where.
func printCatalog(f *os.File) {
	fmt.Fprintln(f, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(f, "  %-14s %s\n", w.Name, w.Why)
		if w.Ungated != "" {
			fmt.Fprintf(f, "  %-14s not in BENCHMARK.json: %s\n", "", w.Ungated)
		}
	}
	fmt.Fprintln(f, "end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(f, "  %-18s %-6s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Fprintln(f, "also printed, not gated:")
	for _, m := range extraEndToEnd {
		fmt.Fprintf(f, "  %-18s %-6s %s\n", m.Name, m.Unit, m.Doc)
	}
	fmt.Fprintln(f, "per-layer metrics (-trace 1): name, unit, moves, on")
	for _, m := range perLayer {
		fmt.Fprintf(f, "  %-36s %-6s moves %s on %s\n", m.Name, m.Unit, m.Moves, m.On)
	}
}

// writeJSONLine prints v as one JSON line.
func writeJSONLine(f *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and float64s reach here
	}
	fmt.Fprintln(f, string(b))
}
