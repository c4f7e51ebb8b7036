package main

import (
	"fmt"
	"sync"
	"time"

	"gcbfs"
	"gcbfs/internal/baseline"
	"gcbfs/internal/delta"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// Everything a run feeds the service is made here, from the seed alone and
// before any timing starts: the graph, the sources, the deltas and their
// inverses, and the serial-BFS reference answers the checks compare against.

// Sub-seed tags: each input draws from its own stream of the workload seed.
const (
	tagSources uint64 = iota + 1
	tagDelta
	tagRephase
)

// subSeed derives an independent seed for one input from the workload seed
// (the splitmix64 finalizer over seed and tag).
func subSeed(seed, tag uint64) uint64 {
	z := seed + tag*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// answerHash fingerprints an answer: its levels and, when given, its
// parents. The references keep only this, so a run can check a large source
// pool on every graph version without holding the arrays.
func answerHash(levels []int32, parents []int64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, l := range levels {
		h = (h ^ uint64(uint32(l))) * prime
	}
	for _, p := range parents {
		h = (h ^ uint64(p)) * prime
	}
	return h
}

// inputs holds one run's generated inputs.
type inputs struct {
	seed uint64
	g    *gcbfs.Graph
	// els[i] is the edge list of graph version i, the same edges the service
	// holds: els[0] the initial graph and, on mutating workloads, els[1+j]
	// the graph after fwds[j].
	els     []*graph.EdgeList
	csrs    []*graph.CSR
	sources []int64
	// fwds are 0.1% mixed deltas of els[0], and invs[j] undoes fwds[j]; the
	// writer applies fwds[0], invs[0], fwds[1], invs[1], ... so the graph
	// never drifts from these versions. batches[j] is fwds[j] in the form
	// the delta layer takes.
	fwds, invs []*gcbfs.Delta
	batches    []*delta.Batch
	// refs[i][s] is the answerHash of the serial answer for source s on
	// graph version i: its levels and, where parents are checked, the
	// canonical min-id parent tree.
	refs []map[int64]uint64
	// serialMs is the host time of serial BFS on els[0] for the first
	// serialSamples sources.
	serialMs []float64
}

// graphIndex maps a result's epoch to the graph version that answered it.
// Fixed Services report epoch 0. A MutableService starts at epoch 1 on
// els[0]; the writer's delta order puts every odd epoch back on els[0] and
// epoch 2(j+1) on the graph after fwds[j mod len(fwds)].
func (in *inputs) graphIndex(epoch uint64) int {
	if epoch%2 == 1 || epoch == 0 {
		return 0
	}
	return 1 + int((epoch/2-1)%uint64(len(in.fwds)))
}

// nextDelta returns the delta the writer applies to epoch e.
func (in *inputs) nextDelta(e uint64) *gcbfs.Delta {
	k := uint64(len(in.fwds))
	if e%2 == 1 {
		return in.fwds[((e+1)/2-1)%k]
	}
	return in.invs[(e/2-1)%k]
}

// makeInputs generates the workload's inputs from seed.
func makeInputs(w *workload, seed uint64) (*inputs, error) {
	in := &inputs{seed: seed}
	// The graphs are the library's own, with their fixed generator seeds:
	// the run's seed varies the sources and deltas. A sweep's simulated
	// rate follows the graph's shape closely enough that RMAT graphs of
	// different seeds spread sim_gteps by a tenth.
	if w.Web {
		in.g = gcbfs.WebGraph(w.Scale)
		in.els = []*graph.EdgeList{gen.WebGraph(gen.DefaultWebParams(w.Scale))}
	} else {
		in.g = gcbfs.RMAT(w.Scale)
		in.els = []*graph.EdgeList{rmat.Generate(rmat.DefaultParams(w.Scale))}
	}
	if in.g.NumEdges() != in.els[0].M() {
		return nil, fmt.Errorf("benchmark graph has %d edges, service graph %d", in.els[0].M(), in.g.NumEdges())
	}
	in.sources = gcbfs.Sources(in.g, w.Pool, int64(subSeed(seed, tagSources)>>1))
	if len(in.sources) < w.Pool {
		return nil, fmt.Errorf("graph has only %d usable sources, workload wants %d", len(in.sources), w.Pool)
	}
	deltas := 1 // the probes' delta
	if w.Load == loadMutate {
		deltas = mutateDeltas
	}
	for j := range deltas {
		b := delta.Synthesize(in.els[0], deltaFrac, delta.KindMixed, subSeed(seed, tagDelta+uint64(j)<<8))
		in.batches = append(in.batches, b)
		in.fwds = append(in.fwds, publicDelta(b.Inserts, b.Deletes))
		in.invs = append(in.invs, publicDelta(b.Deletes, b.Inserts))
		if w.Load != loadMutate {
			continue
		}
		el, err := delta.Apply(in.els[0], b)
		if err != nil {
			return nil, fmt.Errorf("apply generated delta: %w", err)
		}
		in.els = append(in.els, el)
	}

	for _, el := range in.els {
		csr := graph.BuildCSR(el)
		in.csrs = append(in.csrs, csr)
		in.refs = append(in.refs, references(csr, in.sources, w.Parents))
	}
	// Timed alone, so the figure does not share the CPU with the references.
	for _, s := range in.sources[:min(len(in.sources), serialSamples)] {
		t0 := time.Now()
		baseline.SerialBFS(in.csrs[0], s)
		in.serialMs = append(in.serialMs, msSince(t0))
	}
	return in, nil
}

// serialSamples is how many serial BFS runs time the machine for the report.
const serialSamples = 16

// references computes the answerHash of every source's serial answer, one
// worker per client so the pool is ready in half the time.
func references(csr *graph.CSR, sources []int64, parents bool) map[int64]uint64 {
	hashes := make([]uint64, len(sources))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(sources); i += clients {
				levels := baseline.SerialBFS(csr, sources[i])
				var ps []int64
				if parents {
					ps = canonicalParents(csr, sources[i], levels)
				}
				hashes[i] = answerHash(levels, ps)
			}
		}()
	}
	wg.Wait()
	refs := make(map[int64]uint64, len(sources))
	for i, s := range sources {
		refs[s] = hashes[i]
	}
	return refs
}

// deltaFrac is the share of undirected edges one generated delta touches;
// a mutating workload's writer cycles through mutateDeltas of them, so one
// delta's reach into the BFS trees does not set the whole run's figures.
const (
	deltaFrac    = 0.001
	mutateDeltas = 4
)

// publicDelta builds a service Delta from internal edge slices.
func publicDelta(ins, del []graph.Edge) *gcbfs.Delta {
	d := &gcbfs.Delta{Inserts: make([]gcbfs.Edge, len(ins)), Deletes: make([]gcbfs.Edge, len(del))}
	for i, e := range ins {
		d.Inserts[i] = gcbfs.Edge{U: e.U, V: e.V}
	}
	for i, e := range del {
		d.Deletes[i] = gcbfs.Edge{U: e.U, V: e.V}
	}
	return d
}

// canonicalParents derives the BFS tree the service promises from serial
// levels: each visited vertex's parent is its smallest-id neighbor one level
// closer to the source, and the source is its own parent.
func canonicalParents(c *graph.CSR, source int64, levels []int32) []int64 {
	parents := make([]int64, c.N)
	for v := range parents {
		parents[v] = -1
	}
	parents[source] = source
	for v := int64(0); v < c.N; v++ {
		l := levels[v]
		if l <= 0 {
			continue
		}
		best := int64(-1)
		for _, u := range c.Neighbors(v) {
			if levels[u] == l-1 && (best < 0 || u < best) {
				best = u
			}
		}
		parents[v] = best
	}
	return parents
}

// msSince returns the milliseconds elapsed since t0.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
