package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gcbfs"
	"gcbfs/internal/baseline"
	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/g500"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/wire"
)

// The per-layer probes of the traced run. Each times the benchmark's own
// calls into one layer's public functions, on the workload's graph and with
// the service's options, inside spans on the probe track.

const (
	probeSources = 16 // sources the paired and per-source probes use
	probeRepeats = 3  // repetitions of each constructor step and sweep
	mpiRounds    = 200
	wireSources  = 4  // answered level arrays the wire probe rebuilds frontiers from
	wirePasses   = 10 // encode and decode passes over those frontiers
)

// prober carries what the probes share.
type prober struct {
	ctx   context.Context
	w     *workload
	in    *inputs
	cfg   gcbfs.Config
	shape core.ClusterShape
	pcfg  partition.Config
	th    int64
	tr    *tracer
	out   map[string]float64
	tally tally
}

// span opens a probe-track span under parent.
func (p *prober) span(op, parent int64, layer, name string) active {
	return p.tr.begin(clients, op, parent, layer, name)
}

// probe runs every per-layer probe and returns the figures by metric name.
func probe(ctx context.Context, w *workload, in *inputs, cfg gcbfs.Config, q querier, th int64,
	warm []*gcbfs.Result, tr *tracer) (map[string]float64, tally, error) {
	sh := shape(w.Cluster)
	p := &prober{ctx: ctx, w: w, in: in, cfg: cfg, shape: sh, pcfg: sh.PartitionConfig(), th: th, tr: tr,
		out: map[string]float64{}}
	sub, plan, err := p.buildSteps()
	if err != nil {
		return nil, p.tally, err
	}
	runMs := p.runs(q, plan)
	p.serial(runMs)
	p.sweep(q, plan)
	p.collectives(plan, warm)
	p.wire()
	resultCounts(p.out, warm)
	if err := p.mutation(sub, plan); err != nil {
		return nil, p.tally, err
	}
	return p.out, p.tally, nil
}

// buildSteps times the service constructor's steps: separation, Algorithm-1
// distribution and plan construction.
func (p *prober) buildSteps() (*partition.Subgraphs, *core.Plan, error) {
	var sepMs, distMs, planMs []float64
	var sub *partition.Subgraphs
	var plan *core.Plan
	el := p.in.els[0]
	for range probeRepeats {
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.construct")
		t0 := time.Now()
		sp := p.span(op, root.id(), "partition", "partition.Separate")
		sep := partition.Separate(el, p.th)
		sp.end()
		sepMs = append(sepMs, msSince(t0))
		t0 = time.Now()
		sp = p.span(op, root.id(), "partition", "partition.Distribute")
		s, err := partition.Distribute(el, sep, p.pcfg)
		sp.end()
		distMs = append(distMs, msSince(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("probe distribute: %w", err)
		}
		t0 = time.Now()
		sp = p.span(op, root.id(), "core", "core.NewPlan")
		pl, err := core.NewPlan(s, p.shape, engineOptions(p.cfg))
		sp.end()
		planMs = append(planMs, msSince(t0))
		root.end()
		if err != nil {
			return nil, nil, fmt.Errorf("probe plan: %w", err)
		}
		sub, plan = s, pl
	}
	p.out["partition.separate_ms"] = median(sepMs)
	p.out["partition.distribute_ms"] = median(distMs)
	p.out["core.new_plan_ms"] = median(planMs)
	return sub, plan, nil
}

// runs times Service.Run and core.Plan.Run on the same sources, alternating
// which goes first, and returns the core.Plan.Run times.
func (p *prober) runs(q querier, plan *core.Plan) []float64 {
	chk := checker{in: p.in, parents: p.w.Parents}
	var planMs, selfMs, nsPerEdge, usPerIter []float64
	for i, s := range p.in.sources[:probeSources] {
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.run")
		var svcMs, coreMs float64
		for j := range 2 {
			t0 := time.Now()
			if (i+j)%2 == 0 {
				sp := p.span(op, root.id(), "gcbfs", "Service.Run")
				res, err := q.Run(p.ctx, s)
				sp.end()
				svcMs = msSince(t0)
				p.count(fmt.Sprintf("probe Service.Run(%d)", s), err, func() error { return chk.check(res) })
				continue
			}
			sp := p.span(op, root.id(), "core", "core.Plan.Run")
			r, err := plan.Run(p.ctx, s, core.Overrides{})
			sp.end()
			coreMs = msSince(t0)
			p.count(fmt.Sprintf("probe core.Plan.Run(%d)", s), err, func() error { return chk.checkCore(r) })
			if err == nil {
				nsPerEdge = append(nsPerEdge, coreMs*1e6/float64(max(r.EdgesScanned, 1)))
				usPerIter = append(usPerIter, coreMs*1e3/float64(max(r.Iterations, 1)))
			}
		}
		root.end()
		planMs = append(planMs, coreMs)
		selfMs = append(selfMs, svcMs-coreMs)
	}
	p.out["core.run_ms_p50"] = median(planMs)
	p.out["core.ns_per_edge"] = median(nsPerEdge)
	p.out["core.us_per_iteration"] = median(usPerIter)
	if p.w.Load != loadSweep {
		p.out["gcbfs.self_ms_p50"] = median(selfMs)
	}
	return planMs
}

// checkCore checks a core result the way check does a service answer.
func (c checker) checkCore(r *metrics.RunResult) error {
	return c.check(&gcbfs.Result{Source: r.Source, Epoch: r.Epoch, Levels: r.Levels, Parents: r.Parents})
}

// count records one probe operation: err, or else the answer check's error
// (check may be nil).
func (p *prober) count(what string, err error, check func() error) {
	p.tally.attempted++
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		p.tally.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

// serial times the serial reference BFS and the Graph500 validation on the
// probe sources.
func (p *prober) serial(runMs []float64) {
	var serialMs, validateMs []float64
	el, csr := p.in.els[0], p.in.csrs[0]
	for _, s := range p.in.sources[:probeSources] {
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.serial")
		t0 := time.Now()
		sp := p.span(op, root.id(), "baseline", "baseline.SerialBFS")
		levels := baseline.SerialBFS(csr, s)
		sp.end()
		serialMs = append(serialMs, msSince(t0))
		t0 = time.Now()
		sp = p.span(op, root.id(), "g500", "g500.Validate")
		err := g500.Validate(el, s, levels)
		sp.end()
		validateMs = append(validateMs, msSince(t0))
		root.end()
		p.count(fmt.Sprintf("probe g500.Validate(%d)", s), err, nil)
	}
	p.out["baseline.serial_bfs_ms_p50"] = median(serialMs)
	p.out["core.speedup_vs_serial"] = median(serialMs) / median(runMs)
	p.out["g500.validate_ms"] = median(validateMs)
}

// sweep times core.Plan.RunSweep; on the sweep workload it also pairs it
// with Service.RunSweep for the facade's self time.
func (p *prober) sweep(q querier, plan *core.Plan) {
	chk := checker{in: p.in, parents: p.w.Parents}
	var coreMs, selfMs []float64
	for k := range probeRepeats {
		batch := sweepBatch(p.in.sources, k)
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.sweep")
		t0 := time.Now()
		sp := p.span(op, root.id(), "core", "core.Plan.RunSweep")
		rs, err := plan.RunSweep(p.ctx, batch, core.Overrides{})
		sp.end()
		ms := msSince(t0)
		coreMs = append(coreMs, ms)
		p.count("probe core.Plan.RunSweep", err, func() error {
			for _, r := range rs {
				if err := chk.checkCore(r); err != nil {
					return err
				}
			}
			return nil
		})
		if p.w.Load == loadSweep {
			t0 = time.Now()
			sp = p.span(op, root.id(), "gcbfs", "Service.RunSweep")
			br, err := q.RunSweep(p.ctx, batch)
			sp.end()
			selfMs = append(selfMs, msSince(t0)-ms)
			p.count("probe Service.RunSweep", err, func() error { return checkSweep(chk, batch, br) })
		}
		root.end()
	}
	p.out["core.sweep_ms_p50"] = median(coreMs)
	if p.w.Load == loadSweep {
		p.out["gcbfs.self_ms_p50"] = median(selfMs)
	}
}

// collectives times the simulated transport: one delegate-mask AllreduceOr
// and one all-pairs Isend/Recv round at the workload's mean message size,
// each across the workload's ranks.
func (p *prober) collectives(plan *core.Plan, warm []*gcbfs.Result) {
	ranks := p.shape.Ranks()
	words := int((plan.Graph().D() + 63) / 64)
	var bytes, msgs int64
	for _, r := range warm {
		bytes += r.WireBytes
		msgs += r.Messages
	}
	msgSize := int(max(bytes/max(msgs, 1), 1))

	op := p.tr.newOp()
	root := p.span(op, 0, "bench", "probe.mpi")
	sp := p.span(op, root.id(), "mpi", "mpi.Comm.AllreduceOr")
	p.out["mpi.allreduce_or_us"] = perRound(ranks, func(c *mpi.Comm) {
		mask := make([]uint64, words)
		mask[c.Rank()%len(mask)] = 1
		for range mpiRounds {
			c.AllreduceOr(mask)
		}
	})
	sp.end()
	sp = p.span(op, root.id(), "mpi", "mpi.Comm.Isend/Recv")
	payload := make([]byte, msgSize)
	p.out["mpi.sendrecv_us"] = perRound(ranks, func(c *mpi.Comm) {
		for range mpiRounds {
			for dst := range ranks {
				if dst != c.Rank() {
					c.Isend(dst, 1, payload)
				}
			}
			for src := range ranks {
				if src != c.Rank() {
					c.Recv(src, 1)
				}
			}
		}
	})
	sp.end()
	root.end()
}

// perRound runs body on every rank of a fresh world at once and returns the
// wall time per round in µs, for bodies that run mpiRounds rounds.
func perRound(ranks int, body func(c *mpi.Comm)) float64 {
	w := mpi.NewWorld(max(ranks, 1))
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := range w.Size() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w.Rank(r))
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / mpiRounds
}

// wire times the adaptive codec on frontier blocks rebuilt from the levels
// of answered sources: for each level, the level's vertices grouped by
// owner GPU as local ids — the blocks the exchange encodes per destination.
func (p *prober) wire() {
	var blocks [][]uint32
	ids := 0
	for _, s := range p.in.sources[:wireSources] {
		blocks = append(blocks, frontierBlocks(p.pcfg, baseline.SerialBFS(p.in.csrs[0], s))...)
	}
	for _, b := range blocks {
		ids += len(b)
	}
	op := p.tr.newOp()
	root := p.span(op, 0, "bench", "probe.wire")
	enc := make([][]byte, len(blocks))
	t0 := time.Now()
	sp := p.span(op, root.id(), "wire", "wire.Append")
	for range wirePasses {
		for i, b := range blocks {
			enc[i], _ = wire.Append(enc[i][:0], b, wire.ModeAdaptive)
		}
	}
	sp.end()
	p.out["wire.encode_ns_per_id"] = float64(time.Since(t0).Nanoseconds()) / float64(wirePasses*max(ids, 1))
	var dec []uint32
	var err error
	t0 = time.Now()
	sp = p.span(op, root.id(), "wire", "wire.Decode")
	for range wirePasses {
		for _, e := range enc {
			if dec, _, _, err = wire.DecodeAppend(e, dec[:0]); err != nil {
				break
			}
		}
	}
	sp.end()
	p.out["wire.decode_ns_per_id"] = float64(time.Since(t0).Nanoseconds()) / float64(wirePasses*max(ids, 1))
	root.end()
	p.count("probe wire round trip", err, func() error {
		// The adaptive codec may reorder a block; what must survive is the set.
		for i, b := range blocks {
			got, _, _, err := wire.Decode(enc[i])
			if err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
			if !slices.Equal(sortedIDs(got), sortedIDs(b)) {
				return fmt.Errorf("block %d decodes to other ids", i)
			}
		}
		return nil
	})
}

// frontierBlocks splits each BFS level's vertices by owner GPU.
func frontierBlocks(cfg partition.Config, levels []int32) [][]uint32 {
	byLevel := map[int32][][]uint32{}
	for v, l := range levels {
		if l < 1 {
			continue
		}
		if byLevel[l] == nil {
			byLevel[l] = make([][]uint32, cfg.P())
		}
		g := cfg.OwnerGPU(int64(v))
		byLevel[l][g] = append(byLevel[l][g], cfg.LocalID(int64(v)))
	}
	var out [][]uint32
	for _, gpus := range byLevel {
		for _, b := range gpus {
			if len(b) > 0 {
				out = append(out, b)
			}
		}
	}
	return out
}

func sortedIDs(ids []uint32) []uint32 {
	s := slices.Clone(ids)
	slices.Sort(s)
	return s
}

// resultCounts derives the exact per-query counts from the warm-up answers.
func resultCounts(out map[string]float64, warm []*gcbfs.Result) {
	var wireB, rawB, msgs, apIt, bfIt, iters int64
	var pred, remote, codec, hidden, comp, local, deleg float64
	for _, r := range warm {
		wireB += r.WireBytes
		rawB += r.WireRawBytes
		msgs += r.Messages
		apIt += r.AllPairsIterations
		bfIt += r.ButterflyIterations
		iters += int64(r.Iterations)
		pred += r.PredictedRemoteSeconds
		remote += r.RemoteNormal
		codec += r.CodecSeconds
		hidden += r.HiddenCodecSeconds
		comp += r.Computation
		local += r.LocalComm
		deleg += r.RemoteDelegate
	}
	n := float64(max(len(warm), 1))
	out["core.iterations_per_query"] = float64(iters) / n
	out["wire.bytes_per_query"] = float64(wireB) / n
	out["wire.savings"] = ratioOr0(float64(rawB-wireB), float64(rawB))
	out["core.messages_per_query"] = float64(msgs) / n
	out["core.butterfly_iter_frac"] = ratioOr0(float64(bfIt), float64(apIt+bfIt))
	out["core.policy_error"] = ratioOr0(math.Abs(pred-remote), remote)
	out["simgpu.computation_us"] = comp / n * 1e6
	out["simnet.local_comm_us"] = local / n * 1e6
	out["simnet.remote_normal_us"] = remote / n * 1e6
	out["simnet.remote_delegate_us"] = deleg / n * 1e6
	out["simnet.hidden_codec_frac"] = ratioOr0(hidden, codec)
}

// ratioOr0 is a/b, or 0 when b is 0.
func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mutation times the write path's layers on the workload's delta: the edge
// batch application, the incremental distribution onto the next epoch, the
// affected-set derivation and the corrective traversal against a full
// traversal of the same epoch.
func (p *prober) mutation(sub *partition.Subgraphs, plan *core.Plan) error {
	el0 := p.in.els[0]
	var applyMs, incMs []float64
	var el1 *graph.EdgeList
	var sub1 *partition.Subgraphs
	shared := 0
	for range probeRepeats {
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.epoch")
		t0 := time.Now()
		sp := p.span(op, root.id(), "delta", "delta.Apply")
		e, err := delta.Apply(el0, p.in.batches[0])
		sp.end()
		applyMs = append(applyMs, msSince(t0))
		if err != nil {
			root.end()
			return fmt.Errorf("probe delta.Apply: %w", err)
		}
		sep := partition.Separate(e, p.th)
		t0 = time.Now()
		sp = p.span(op, root.id(), "partition", "partition.DistributeIncremental")
		s, n, err := partition.DistributeIncremental(e, sep, p.pcfg, sub)
		sp.end()
		incMs = append(incMs, msSince(t0))
		root.end()
		if err != nil {
			return fmt.Errorf("probe DistributeIncremental: %w", err)
		}
		el1, sub1, shared = e, s, n
	}
	p.out["delta.apply_ms"] = median(applyMs)
	p.out["partition.distribute_incremental_ms"] = median(incMs)
	p.out["partition.shared_gpu_frac"] = float64(shared) / float64(p.shape.P())

	plan1, err := core.NewPlan(sub1, p.shape, engineOptions(p.cfg))
	if err != nil {
		return fmt.Errorf("probe next-epoch plan: %w", err)
	}
	csr1 := graph.BuildCSR(el1)
	withParents := true
	var affMs, affFrac, repMs, ratio []float64
	for _, s := range p.in.sources[:probeSources] {
		prior, err := plan.Run(p.ctx, s, core.Overrides{CollectParents: &withParents})
		p.count(fmt.Sprintf("probe prior Run(%d)", s), err, func() error {
			return checker{in: p.in, parents: p.w.Parents}.checkCore(prior)
		})
		if err != nil {
			continue
		}
		want := baseline.SerialBFS(csr1, s)
		op := p.tr.newOp()
		root := p.span(op, 0, "bench", "probe.repair")
		t0 := time.Now()
		sp := p.span(op, root.id(), "delta", "delta.Affected")
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, p.in.batches[0])
		sp.end()
		affMs = append(affMs, msSince(t0))
		affFrac = append(affFrac, float64(countTrue(invalid))/float64(len(invalid)))
		t0 = time.Now()
		sp = p.span(op, root.id(), "core", "core.Plan.RunRepair")
		rep, err := plan1.RunRepair(p.ctx, s, prior.Levels, invalid, seeds, core.Overrides{})
		sp.end()
		rms := msSince(t0)
		p.count(fmt.Sprintf("probe RunRepair(%d)", s), err, func() error { return g500.CompareLevels(rep.Levels, want) })
		t0 = time.Now()
		sp = p.span(op, root.id(), "core", "core.Plan.Run")
		full, err := plan1.Run(p.ctx, s, core.Overrides{})
		sp.end()
		fms := msSince(t0)
		root.end()
		p.count(fmt.Sprintf("probe next-epoch Run(%d)", s), err, func() error { return g500.CompareLevels(full.Levels, want) })
		repMs = append(repMs, rms)
		ratio = append(ratio, rms/fms)
	}
	p.out["delta.affected_ms"] = median(affMs)
	p.out["delta.affected_frac"] = median(affFrac)
	p.out["core.repair_ms_p50"] = median(repMs)
	p.out["core.repair_vs_run"] = median(ratio)
	return nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
