package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"gcbfs"
)

// opKind labels a timed call.
type opKind int

const (
	opRun    opKind = iota // Service.Run
	opSweep                // Service.RunSweep
	opApply                // MutableService.ApplyDelta
	opRepair               // MutableService.Repair
	opCycle                // ApplyDelta followed by Repair, timed as one write
	numOps
)

// querier is the read side Service and MutableService share.
type querier interface {
	Run(ctx context.Context, source int64, opts ...gcbfs.QueryOption) (*gcbfs.Result, error)
	RunSweep(ctx context.Context, sources []int64, opts ...gcbfs.QueryOption) (*gcbfs.BatchResult, error)
}

// tally counts operations and their outcomes. An operation fails when it
// returns an error or any answer it returns differs from the reference.
type tally struct {
	attempted, failed int64
	answers           int64
	failures          []string // the first few, for the report
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.answers += o.answers
	t.failures = append(t.failures, o.failures...)
	t.failures = t.failures[:min(len(t.failures), maxFailures)]
}

// maxFailures is how many failure messages a tally keeps for the report.
const maxFailures = 5

// fail records one failed operation.
func (t *tally) fail(msg string) {
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, msg)
	}
}

// window is what one measured closed-loop window recorded.
type window struct {
	lat      [numOps][]float64 // ms per call
	tally    tally
	seconds  float64 // from start until the last client's last call returned
	heapPeak float64 // near-peak live heap, bytes (see sampleHeap)
	rt       runtimeUse
	trees    map[treeKey]*gcbfs.Result // first answer per (graph, source), when parents are collected
}

// treeKey names one answer: a graph version and a source.
type treeKey struct {
	graph  int
	source int64
}

// checker compares answers against the run's references.
type checker struct {
	in      *inputs
	parents bool
}

// check returns an error when res differs from the serial reference for its
// source on the graph of the epoch it reports.
func (c checker) check(res *gcbfs.Result) error {
	gi := c.in.graphIndex(res.Epoch)
	if gi >= len(c.in.refs) {
		return fmt.Errorf("source %d: answer from epoch %d, which no graph version of this run matches", res.Source, res.Epoch)
	}
	ref, ok := c.in.refs[gi][res.Source]
	if !ok {
		return fmt.Errorf("answer for source %d, which the run never asked", res.Source)
	}
	var parents []int64
	if c.parents {
		if res.Parents == nil {
			return fmt.Errorf("source %d epoch %d: answer carries no parents", res.Source, res.Epoch)
		}
		parents = res.Parents
	}
	if answerHash(res.Levels, parents) != ref {
		return fmt.Errorf("source %d epoch %d: levels or parents differ from serial BFS and its canonical tree", res.Source, res.Epoch)
	}
	return nil
}

// client is one closed-loop caller's private record.
type client struct {
	lat   [numOps][]float64
	tally tally
	trees map[treeKey]*gcbfs.Result
	end   time.Time
}

// keepTree remembers the first answer per (graph, source), up to
// maxTrees, for the tree check after the window.
func (cl *client) keepTree(in *inputs, res *gcbfs.Result) {
	k := treeKey{in.graphIndex(res.Epoch), res.Source}
	if _, ok := cl.trees[k]; !ok && len(cl.trees) < maxTrees {
		cl.trees[k] = res
	}
}

// maxTrees bounds the answers each client keeps for g500.ValidateTree,
// which rebuilds an edge set per call; every answer is compared with the
// canonical tree as it arrives regardless.
const maxTrees = 8

// loop drives one measured window: every client sends its next request only
// when the previous one has returned, until dur has passed. Answers are
// checked between calls, outside the timed region.
func loop(ctx context.Context, w *workload, in *inputs, q querier, mut *gcbfs.MutableService,
	dur time.Duration, tr *tracer) *window {
	chk := checker{in: in, parents: w.Parents}
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = &client{trees: make(map[treeKey]*gcbfs.Result)}
	}
	rtBefore := readRuntime()
	stopHeap := sampleHeap()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cls[c]
			switch {
			case w.Load == loadSweep:
				sweepClient(ctx, cl, c, in, q, chk, deadline, tr)
			case w.Load == loadMutate && c == 1:
				writerClient(ctx, cl, c, in, mut, chk, deadline, tr)
			default:
				runClient(ctx, w, cl, c, in, q, chk, deadline, tr)
			}
			cl.end = time.Now()
		}(c)
	}
	wg.Wait()
	win := &window{heapPeak: stopHeap(), rt: readRuntime().since(rtBefore), trees: make(map[treeKey]*gcbfs.Result)}
	for _, cl := range cls {
		for k := range cl.lat {
			win.lat[k] = append(win.lat[k], cl.lat[k]...)
		}
		win.tally.add(cl.tally)
		win.seconds = max(win.seconds, cl.end.Sub(start).Seconds())
		for k, r := range cl.trees {
			if _, ok := win.trees[k]; !ok {
				win.trees[k] = r
			}
		}
	}
	return win
}

// The reader of a mutating workload pauses for a seeded 0 to rephaseMax
// every rephaseEvery calls. Without the pauses the reader and the writer
// can lock into one phase pattern for a whole run, and runs of one seed
// differed by a fifth; the pauses make a run sample several patterns.
const (
	rephaseEvery = 16
	rephaseMax   = 20 * time.Millisecond
)

// runClient calls Run over the source pool, starting at its own offset.
func runClient(ctx context.Context, w *workload, cl *client, c int, in *inputs, q querier, chk checker, deadline time.Time, tr *tracer) {
	for k := c; time.Now().Before(deadline); k += clients {
		op := tr.newOp()
		root := tr.begin(c, op, 0, "bench", "client.Run")
		cl.run(ctx, c, op, root.id(), in.sources[k%len(in.sources)], q, chk, tr)
		root.end()
		if w.Load == loadMutate && (k/clients)%rephaseEvery == rephaseEvery-1 {
			time.Sleep(time.Duration(subSeed(in.seed, tagRephase+uint64(k)<<8) % uint64(rephaseMax)))
		}
	}
}

// run times one Run call and checks its answer; it returns the answer, or
// nil when the call failed.
func (cl *client) run(ctx context.Context, c int, op, parent int64, src int64, q querier, chk checker, tr *tracer) *gcbfs.Result {
	t0 := time.Now()
	sp := tr.begin(c, op, parent, "gcbfs", "Service.Run")
	res, err := q.Run(ctx, src)
	sp.end()
	cl.lat[opRun] = append(cl.lat[opRun], msSince(t0))
	cl.tally.attempted++
	if err == nil {
		err = chk.check(res)
	}
	if err != nil {
		cl.tally.fail(fmt.Sprintf("Run(%d): %v", src, err))
		return nil
	}
	cl.tally.answers++
	if chk.parents {
		cl.keepTree(chk.in, res)
	}
	return res
}

// sweepBatch returns the k-th sweep's sources: sweepWidth distinct pool
// entries starting at a rotating offset. With the sweep workload's pool of
// twice the width, 16 offsets take turns and the first eight all differ.
func sweepBatch(pool []int64, k int) []int64 {
	width := min(sweepWidth, len(pool))
	off := k * width * 3 / 8
	batch := make([]int64, width)
	for i := range batch {
		batch[i] = pool[(off+i)%len(pool)]
	}
	return batch
}

// sweepClient calls RunSweep with sweepWidth sources per call.
func sweepClient(ctx context.Context, cl *client, c int, in *inputs, q querier, chk checker, deadline time.Time, tr *tracer) {
	for k := c; time.Now().Before(deadline); k += clients {
		batch := sweepBatch(in.sources, k)
		op := tr.newOp()
		root := tr.begin(c, op, 0, "bench", "client.RunSweep")
		t0 := time.Now()
		sp := tr.begin(c, op, root.id(), "gcbfs", "Service.RunSweep")
		br, err := q.RunSweep(ctx, batch)
		sp.end()
		cl.lat[opSweep] = append(cl.lat[opSweep], msSince(t0))
		cl.tally.attempted++
		if err == nil {
			err = checkSweep(chk, batch, br)
		}
		if err != nil {
			cl.tally.fail(fmt.Sprintf("RunSweep(%d sources): %v", len(batch), err))
		} else {
			cl.tally.answers += int64(len(batch))
		}
		root.end()
	}
}

// checkSweep checks every lane of a sweep.
func checkSweep(chk checker, batch []int64, br *gcbfs.BatchResult) error {
	if len(br.Results) != len(batch) {
		return fmt.Errorf("%d results for %d sources", len(br.Results), len(batch))
	}
	for i, r := range br.Results {
		if r.Source != batch[i] {
			return fmt.Errorf("lane %d answers source %d, asked %d", i, r.Source, batch[i])
		}
		if err := chk.check(r); err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
	}
	return nil
}

// writerClient takes a fresh answer for the next pool source, applies the
// next delta and repairs the answer across it. The deltas come in
// delta-inverse pairs, so the graph never drifts from its versions. Only the
// ApplyDelta and Repair calls make up the timed write; the Run is timed as a
// read.
func writerClient(ctx context.Context, cl *client, c int, in *inputs, mut *gcbfs.MutableService, chk checker,
	deadline time.Time, tr *tracer) {
	for k := c; time.Now().Before(deadline); k += clients {
		op := tr.newOp()
		root := tr.begin(c, op, 0, "bench", "client.write")
		held := cl.run(ctx, c, op, root.id(), in.sources[k%len(in.sources)], mut, chk, tr)
		if held == nil {
			root.end()
			continue
		}
		d := in.nextDelta(held.Epoch)
		t0 := time.Now()
		sp := tr.begin(c, op, root.id(), "gcbfs", "MutableService.ApplyDelta")
		_, err := mut.ApplyDelta(d)
		sp.end()
		tApply := time.Now()
		cl.lat[opApply] = append(cl.lat[opApply], msSince(t0))
		cl.tally.attempted++
		if err != nil {
			cl.tally.fail(fmt.Sprintf("ApplyDelta: %v", err))
			root.end()
			return // the epoch chain is broken; nothing further can be repaired
		}
		sp = tr.begin(c, op, root.id(), "gcbfs", "MutableService.Repair")
		res, err := mut.Repair(ctx, held, d)
		sp.end()
		cl.lat[opRepair] = append(cl.lat[opRepair], msSince(tApply))
		cl.lat[opCycle] = append(cl.lat[opCycle], msSince(t0))
		cl.tally.attempted++
		if err == nil {
			err = chk.check(res)
		}
		if err != nil {
			cl.tally.fail(fmt.Sprintf("Repair(%d): %v", held.Source, err))
		} else {
			cl.tally.answers++
			cl.keepTree(in, res)
		}
		root.end()
	}
}

// runtimeUse is the Go runtime's allocation and GC activity over a window.
type runtimeUse struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the cumulative runtime counters.
func readRuntime() runtimeUse {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeUse{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// since returns the activity between an earlier sample and u.
func (u runtimeUse) since(before runtimeUse) runtimeUse {
	return runtimeUse{
		allocObjects: u.allocObjects - before.allocObjects,
		allocBytes:   u.allocBytes - before.allocBytes,
		gcCPU:        u.gcCPU - before.gcCPU,
		totalCPU:     u.totalCPU - before.totalCPU,
	}
}

// liveHeap returns the live heap as of the last collection, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeap samples the live heap every few milliseconds until the returned
// stop function is called; stop waits for the sampler to exit and returns
// the samples' 90th percentile, in bytes. The live heap changes only when a
// collection ends, so the single highest sample depends on whether one
// ended at a run's busiest moment; the 90th percentile of a window's worth
// of samples does not.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			xs = append(xs, float64(liveHeap()))
			select {
			case <-done:
				p, err := percentile(xs, 90)
				if err != nil {
					p = slices.Max(xs) // a window too short for the percentile
				}
				peak <- p
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}
