package core

import (
	"math/bits"

	"gcbfs/internal/metrics"
	"gcbfs/internal/simgpu"
)

// This file implements the local computation of one BFS iteration (§IV,
// Fig. 3): the previsit kernels that form queues and estimate workloads, the
// four visit kernels in their forward (push) and backward (pull) variants,
// and the per-subgraph direction decisions.
//
// The delegate half works on mask words, the way the paper's delegates are
// single bits in globally consistent masks (§IV-A, §V-A): "we keep source
// masks for the dd and dn subgraphs" (§IV), so previsit ANDs each word of
// the delegate frontier with the GPU's dd/dn source masks, and the backward
// kernels walk source-mask &^ visited a word at a time. Delegates without
// local edges are skipped 64 at a time and never looked up.
//
// Work is counted exactly: forward kernels scan every neighbor of every
// queued source; backward kernels count parent checks until the first
// visited parent. The counts drive both the direction decisions (FV vs BV)
// and the simulated kernel times.

// previsitOut carries queue and workload info from the previsit kernels.
type previsitOut struct {
	// Delegate-sourced queues: frontier delegates with local dd (qDD) or dn
	// (qDN) edges, ascending — the words of dFront ANDed with the GPU's
	// dd/dn source masks.
	qDD, qDN []int64
	// Forward workloads per subgraph: Σ out-degrees of queued sources.
	fvDD, fvDN, fvND, fvNN int64
	// Max row lengths for the TWB skew estimate (dd's is only consulted
	// by the ForceTWBForDD ablation — merge-path ignores skew).
	maxDD, maxDN, maxND, maxNN int64
}

// previsit runs both previsit kernels (§IV: level marking, duplicate and
// zero-degree filtering, queue formation, workload calculation) and charges
// their cost to the respective streams.
func (e *Session) previsit(gs *gpuState) previsitOut {
	var out previsitOut
	// Delegate previsit: scan the (globally consistent) delegate frontier
	// a word at a time; ANDing each word with the dd/dn source masks keeps
	// exactly the delegates with local dd or dn edges, so zero-degree rows
	// are never looked up. The queues are rebuilt every super-step, so they
	// draw on the GPU state's persistent buffers.
	out.qDD, out.qDN = gs.qDDBuf[:0], gs.qDNBuf[:0]
	front := gs.dFront.Words()
	ddSrc, dnSrc := gs.pg.DDSourceMask.Words(), gs.pg.DNSourceMask.Words()
	ddOff, dnOff := gs.pg.DD.RowOffsets, gs.pg.DN.RowOffsets
	frontierBits := int64(0)
	for wi, fw := range front {
		if fw == 0 {
			continue
		}
		frontierBits += int64(bits.OnesCount64(fw))
		base := int64(wi) * 64
		for w := fw & ddSrc[wi]; w != 0; w &= w - 1 {
			di := base + int64(bits.TrailingZeros64(w))
			deg := int64(ddOff[di+1] - ddOff[di])
			out.qDD = append(out.qDD, di)
			out.fvDD += deg
			out.maxDD = max(out.maxDD, deg)
		}
		for w := fw & dnSrc[wi]; w != 0; w &= w - 1 {
			di := base + int64(bits.TrailingZeros64(w))
			deg := int64(dnOff[di+1] - dnOff[di])
			out.qDN = append(out.qDN, di)
			out.fvDN += deg
			out.maxDN = max(out.maxDN, deg)
		}
	}
	gs.qDDBuf, gs.qDNBuf = out.qDD, out.qDN // retain grown capacity
	gs.it.delegateStream += e.charge(gs, simgpu.KernelCost{
		Vertices: frontierBits + e.d/64, Strategy: simgpu.TWBDynamic,
	})

	// Normal previsit: the input frontier is already deduplicated (levels
	// are set exactly once at discovery); compute per-subgraph workloads
	// and filter zero-degree rows at kernel time.
	for _, u := range gs.inFront {
		row := int64(u)
		if deg := gs.pg.ND.Degree(row); deg > 0 {
			out.fvND += deg
			if deg > out.maxND {
				out.maxND = deg
			}
		}
		if deg := gs.pg.NN.Degree(row); deg > 0 {
			out.fvNN += deg
			if deg > out.maxNN {
				out.maxNN = deg
			}
		}
	}
	gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
		Vertices: 2 * int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic,
	})
	return out
}

// backwardWorkload evaluates the paper's BV estimate: |U|·(q+s)/q, the
// expected number of parent checks until the first newly visited parent
// (§IV-B). q=0 means no potential parents: return infinity so the kernel
// stays (or returns) forward, where FV=0 elides it anyway.
func backwardWorkload(u, q, s int64) float64 {
	if q <= 0 {
		return 1e300
	}
	return float64(u) * float64(q+s) / float64(q)
}

// decide applies the two-factor switching rule to one subgraph's direction.
func decide(cur metrics.Direction, f SwitchFactors, fv int64, bv float64) metrics.Direction {
	switch cur {
	case metrics.Forward:
		if float64(fv) > f.Fwd2Bwd*bv {
			return metrics.Backward
		}
	case metrics.Backward:
		if float64(fv) < f.Bwd2Fwd*bv {
			return metrics.Forward
		}
	}
	return cur
}

// decideDirections updates the per-subgraph directions for this iteration.
// qD/sD are the global newly-visited and unvisited delegate counts (the
// delegate masks are globally consistent, so no communication is needed).
func (e *Session) decideDirections(gs *gpuState, pv previsitOut, qD, sD int64) {
	if !e.opts.DirectionOptimized {
		gs.dirDD, gs.dirDN, gs.dirND = metrics.Forward, metrics.Forward, metrics.Forward
		return
	}
	// Candidate-set sizes for the backward variants.
	uDD := gs.pg.DDSourceMask.CountExcluding(gs.visited)
	uND := gs.pg.DNSourceMask.CountExcluding(gs.visited)
	uDN := gs.unvisitedNDSources
	qN := int64(len(gs.inFront))
	sN := gs.unvisitedNDSources

	gs.dirDD = decide(gs.dirDD, e.opts.FactorsDD, pv.fvDD, backwardWorkload(uDD, qD, sD))
	gs.dirDN = decide(gs.dirDN, e.opts.FactorsDN, pv.fvDN, backwardWorkload(uDN, qD, sD))
	gs.dirND = decide(gs.dirND, e.opts.FactorsND, pv.fvND, backwardWorkload(uND, qN, sN))

	// The decision scans (mask sweeps) are extra DO work the paper calls
	// out on long-tail graphs (§VI-D). They fuse into the previsit
	// kernels, so charge compute time without a separate launch.
	gs.it.delegateStream += float64(2*(e.d/64)) / e.opts.GPU.VertexRate
}

// discover marks a local normal vertex visited at the given depth and
// appends it to the output frontier. Parents are not recorded here: the
// BFS tree is resolved canonically after the traversal (parents.go), so the
// tree is a pure function of the hop distances and never depends on which
// kernel or exchange strategy happened to reach a vertex first.
func (gs *gpuState) discover(local uint32, depth int32) {
	gs.levels[local] = depth
	gs.outFront = append(gs.outFront, local)
	if gs.isNDSource[local] {
		gs.unvisitedNDSources--
	}
}

// kernelDD processes delegate→delegate edges into the new-delegate mask.
func (e *Session) kernelDD(gs *gpuState, pv previsitOut) {
	var edges int64
	var vertices int64
	strategy := simgpu.MergePath
	if e.opts.ForceTWBForDD {
		strategy = simgpu.TWBDynamic
	}
	nm := gs.newMask.Words()
	if gs.dirDD == metrics.Forward {
		// Forward push: mark every neighbour; runKernels clears the
		// already-visited ones from the mask in one word-wise pass.
		for _, u := range pv.qDD {
			row := gs.pg.DD.Neighbors(u)
			edges += int64(len(row))
			for _, dv := range row {
				nm[dv/64] |= 1 << (dv % 64)
			}
		}
		vertices = int64(len(pv.qDD))
	} else {
		// Backward pull: unvisited delegates with local dd edges
		// (DDSourceMask &^ visited, a word at a time) check their local
		// parents against the visited mask (depth ≤ iter).
		vis, src := gs.visited.Words(), gs.pg.DDSourceMask.Words()
		for wi, sw := range src {
			base := int64(wi) * 64
			for w := sw &^ vis[wi]; w != 0; w &= w - 1 {
				tz := bits.TrailingZeros64(w)
				vertices++
				for _, dv := range gs.pg.DD.Neighbors(base + int64(tz)) {
					edges++
					if vis[dv/64]&(1<<(dv%64)) != 0 {
						nm[wi] |= 1 << tz
						break
					}
				}
			}
		}
		vertices += e.d / 64
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: strategy,
		Skew: rowSkew(pv.maxDD, pv.fvDD, int64(len(pv.qDD))),
	})
}

// kernelND processes normal→delegate edges into the new-delegate mask.
func (e *Session) kernelND(gs *gpuState, pv previsitOut, iter int32) {
	var edges, vertices int64
	var skew float64
	nm := gs.newMask.Words()
	if gs.dirND == metrics.Forward {
		// Forward push: as kernelDD, visited bits are cleared afterwards.
		for _, u := range gs.inFront {
			row := gs.pg.ND.Neighbors(int64(u))
			edges += int64(len(row))
			for _, dv := range row {
				nm[dv/64] |= 1 << (dv % 64)
			}
		}
		vertices = int64(len(gs.inFront))
		skew = rowSkew(pv.maxND, pv.fvND, vertices)
	} else {
		// Backward: unvisited delegates with local dn edges not already
		// found by dd this iteration (DNSourceMask &^ visited &^ newMask,
		// each word taken before its bits are set) look for a visited
		// local normal parent (depth ≤ iter; this iteration's discoveries
		// are iter+1 and must not count).
		vis, src := gs.visited.Words(), gs.pg.DNSourceMask.Words()
		for wi, sw := range src {
			base := int64(wi) * 64
			for w := sw &^ vis[wi] &^ nm[wi]; w != 0; w &= w - 1 {
				tz := bits.TrailingZeros64(w)
				vertices++
				for _, lv := range gs.pg.DN.Neighbors(base + int64(tz)) {
					edges++
					if lvl := gs.levels[lv]; lvl >= 0 && lvl <= iter {
						nm[wi] |= 1 << tz
						break
					}
				}
			}
		}
		vertices += e.d / 64
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic, Skew: skew,
	})
}

// kernelDN processes delegate→normal edges into the output normal frontier.
func (e *Session) kernelDN(gs *gpuState, pv previsitOut, iter int32) {
	var edges, vertices int64
	var skew float64
	if gs.dirDN == metrics.Forward {
		for _, u := range pv.qDN {
			for _, lv := range gs.pg.DN.Neighbors(u) {
				edges++
				if gs.levels[lv] == -1 {
					gs.discover(lv, iter+1)
				}
			}
		}
		vertices = int64(len(pv.qDN))
		skew = rowSkew(pv.maxDN, pv.fvDN, vertices)
	} else {
		// Backward: unvisited members of the nd source list (exactly the
		// potential dn destinations, §IV-B) look for a visited delegate
		// parent in the visited-as-of-iteration-start mask.
		for _, v := range gs.pg.NDSources {
			if gs.levels[v] != -1 {
				continue
			}
			vertices++
			for _, dv := range gs.pg.ND.Neighbors(int64(v)) {
				edges++
				if gs.visited.Get(int64(dv)) {
					gs.discover(v, iter+1)
					break
				}
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic, Skew: skew,
	})
}

// kernelNN processes normal→normal edges: local destinations are applied
// immediately; remote ones are binned by destination GPU with the 64→32-bit
// id conversion done sender-side (§V-B). nn never runs backward (§IV-B).
func (e *Session) kernelNN(gs *gpuState, pv previsitOut, iter int32) {
	var edges, binned int64
	p64 := int64(e.p)
	self := gs.pg.GPU
	for _, u := range gs.inFront {
		for _, v := range gs.pg.NN.Neighbors(int64(u)) {
			edges++
			owner := e.cfg.OwnerGPU(v)
			local := uint32(v / p64)
			if owner == self {
				if gs.levels[local] == -1 {
					gs.discover(local, iter+1)
				}
			} else {
				gs.bins.Add(owner, local)
				binned++
			}
		}
	}
	gs.it.edgesScanned += edges
	skew := rowSkew(pv.maxNN, pv.fvNN, int64(len(gs.inFront)))
	gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic, Skew: skew,
	})
	// Binning + id conversion cost, O(|Enn|/p) across the whole run.
	if binned > 0 {
		gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
			Vertices: binned, Strategy: simgpu.TWBDynamic,
		})
	}
}

// rowSkew estimates maxRow/avgRow - 1 for the TWB imbalance penalty.
func rowSkew(maxRow, total, rows int64) float64 {
	if rows == 0 || total == 0 || maxRow == 0 {
		return 0
	}
	avg := float64(total) / float64(rows)
	return float64(maxRow)/avg - 1
}

// runKernels executes one iteration's local computation on one GPU and
// returns the previsit info (the run loop needs the workloads for stats).
func (e *Session) runKernels(gs *gpuState, iter int32, qD, sD int64) previsitOut {
	pv := e.previsit(gs)
	e.decideDirections(gs, pv, qD, sD)
	// Delegate stream: dd then nd (both write the delegate mask).
	e.kernelDD(gs, pv)
	e.kernelND(gs, pv, iter)
	// The forward variants mark neighbours untested; one word-wise pass
	// leaves only this iteration's discoveries for the mask reduction.
	gs.newMask.AndNot(gs.visited)
	// Normal stream: dn then nn (both write the normal frontier).
	e.kernelDN(gs, pv, iter)
	e.kernelNN(gs, pv, iter)
	return pv
}
