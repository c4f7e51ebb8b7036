package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"

	"gcbfs"
)

// report gathers one run's figures and prints them.
type report struct {
	w         *workload
	seed      uint64
	traced    bool
	machine   string
	tally     tally
	e2e       map[string]float64
	extra     map[string]float64
	layer     map[string]float64
	counts    string // sample counts behind the percentiles
	tracePath string
	err       error // a figure the run could not produce
}

func newReport(w *workload, seed uint64, traced bool) *report {
	return &report{w: w, seed: seed, traced: traced,
		e2e: map[string]float64{}, extra: map[string]float64{}, layer: map[string]float64{}}
}

// setMachine records what host-clock figures from different machines must
// be read against: CPUs, GOMAXPROCS, Go version and the serial-BFS time on
// this run's graph.
func (r *report) setMachine(in *inputs) {
	r.machine = fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s/%s baseline.serial_bfs_ms_p50=%.3f ms (graph n=%d m=%d)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		median(in.serialMs), in.g.NumVertices(), in.g.NumEdges())
}

// timedOp is the call a workload's latency metrics time.
func timedOp(w *workload) opKind {
	switch w.Load {
	case loadSweep:
		return opSweep
	case loadMutate:
		return opCycle
	}
	return opRun
}

// pct returns a percentile, recording the first refusal as the run's error
// when the end-to-end metrics are the run's result.
func (r *report) pct(xs []float64, p int) float64 {
	v, err := percentile(xs, p)
	if err != nil && r.err == nil && !r.traced {
		r.err = err
	}
	return v
}

// optPct stores a percentile in extra when the sample supports it.
func (r *report) optPct(name string, xs []float64, p int) {
	if v, err := percentile(xs, p); err == nil {
		r.extra[name] = v
	}
}

// setEndToEnd derives the end-to-end metrics from the set-up times, the
// warm-up answers and the untraced window; inputsHeap is the live heap the
// benchmark's own inputs took before the service was built.
func (r *report) setEndToEnd(w *workload, setup []float64, warm []*gcbfs.Result, win *window, inputsHeap uint64) {
	lat := win.lat[timedOp(w)]
	r.e2e["setup_s"] = median(setup)
	r.e2e["latency_ms_p50"] = r.pct(lat, 50)
	r.e2e["latency_ms_p75"] = r.pct(lat, 75)
	r.e2e["answers_per_s"] = float64(win.tally.answers) / win.seconds
	r.e2e["sim_gteps"] = gcbfs.GeoMeanGTEPS(warm)
	r.e2e["heap_mb"] = (win.heapPeak - float64(inputsHeap)) / 1e6

	for _, f := range []struct {
		prefix string
		op     opKind
		tail   int
	}{{"run", opRun, 99}, {"sweep", opSweep, 90}, {"apply", opApply, 90}, {"repair", opRepair, 90}} {
		xs := win.lat[f.op]
		if len(xs) == 0 {
			continue
		}
		r.extra[f.prefix+"_ms_p50"] = median(xs)
		r.optPct(fmt.Sprintf("%s_ms_p%d", f.prefix, f.tail), xs, f.tail)
		r.counts += fmt.Sprintf(" %s=%d", f.prefix, len(xs))
	}
	if n := len(win.lat[opRun]); n > 0 {
		r.extra["run_qps"] = float64(n) / win.seconds
	}
	if w.Load == loadSweep {
		r.extra["sweep_qps"] = r.e2e["answers_per_s"]
	}
}

// print writes the human-readable report and, last, the JSON result line.
func (r *report) print(f *os.File) {
	t := r.tally
	if t.attempted > 0 {
		r.extra["failed_frac"] = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(f, "svcbench workload=%s seed=%d trace=%v\n", r.w.Name, r.seed, r.traced)
	fmt.Fprintf(f, "machine: %s\n", r.machine)
	fmt.Fprintf(f, "samples:%s; operations attempted=%d failed=%d\n", r.counts, t.attempted, t.failed)
	for _, msg := range t.failures {
		fmt.Fprintf(f, "FAILED: %s\n", msg)
	}
	printMetrics(f, endToEnd, r.e2e)
	printMetrics(f, extraEndToEnd, r.extra)
	if r.traced {
		printMetrics(f, perLayer, r.layer)
		fmt.Fprintf(f, "trace: %s\n", r.tracePath)
	}

	list, vals := endToEnd, r.e2e
	if r.traced {
		list, vals = perLayer, r.layer
	}
	out := map[string]map[string]any{}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s has no finite value", m.Name))
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if r.err != nil {
		fatal(r.err)
	}
	writeJSONLine(f, map[string]any{
		"correct":   t.failed == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   out,
	})
}

// fatal ends a run that cannot print a complete result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svcbench:", err)
	os.Exit(1)
}

// printMetrics writes "name value unit" lines for the metrics present.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		if v, ok := vals[m.Name]; ok {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
}

// setPerLayer gathers the traced run's figures: the probes', the runtime's over
// the untraced window, and the trace's own.
func (r *report) setPerLayer(w *workload, base, tw *window, probes map[string]float64, tr *tracer) {
	maps.Copy(r.layer, probes)
	ops := float64(max(base.tally.attempted, 1))
	r.layer["runtime.allocs_per_op"] = float64(base.rt.allocObjects) / ops
	r.layer["runtime.alloc_bytes_per_op"] = float64(base.rt.allocBytes) / ops
	r.layer["runtime.gc_cpu_frac"] = ratioOr0(base.rt.gcCPU, base.rt.totalCPU)
	k := timedOp(w)
	r.layer["trace.overhead_ms"] = median(tw.lat[k]) - median(base.lat[k])
	spans := tr.spans()
	r.layer["trace.spans"] = float64(len(spans))
	self, total := selfTimes(spans)
	for _, l := range traceLayers {
		r.layer[l+".self_frac"] = ratioOr0(self[l].Seconds(), total.Seconds())
	}
}
