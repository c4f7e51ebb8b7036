package core

import (
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/simgpu"
)

// previsitPerBit is the delegate previsit as a per-bit walk of the whole
// frontier with two degree lookups per bit — the reference the word-wise
// previsit must reproduce exactly. Its normal half is unchanged code, so
// only the delegate half and its charge are re-derived here.
func previsitPerBit(e *Session, gs *gpuState) (out previsitOut, charged float64) {
	frontierBits := int64(0)
	gs.dFront.ForEach(func(di int64) {
		frontierBits++
		if ddDeg := gs.pg.DD.Degree(di); ddDeg > 0 {
			out.qDD = append(out.qDD, di)
			out.fvDD += ddDeg
			if ddDeg > out.maxDD {
				out.maxDD = ddDeg
			}
		}
		if dnDeg := gs.pg.DN.Degree(di); dnDeg > 0 {
			out.qDN = append(out.qDN, di)
			out.fvDN += dnDeg
			if dnDeg > out.maxDN {
				out.maxDN = dnDeg
			}
		}
	})
	charged = e.charge(gs, simgpu.KernelCost{
		Vertices: frontierBits + e.d/64, Strategy: simgpu.TWBDynamic,
	})
	return out, charged
}

// kernelSession builds a ready-to-use session over el partitioned for shape
// at threshold th.
func kernelSession(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, opts Options) *Session {
	t.Helper()
	sg, err := partition.Distribute(el, partition.Separate(el, th), shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(sg, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := p.newSession()
	s.configure(opts)
	s.reset()
	return s
}

// randomMask sets each of m's bits with probability density.
func randomMask(m *bitmask.Mask, rng *rand.Rand, density float64) {
	m.Reset()
	for i := int64(0); i < m.Len(); i++ {
		if rng.Float64() < density {
			m.Set(i)
		}
	}
}

func kernelGraphs() []struct {
	name string
	el   *graph.EdgeList
	th   int64
} {
	return []struct {
		name string
		el   *graph.EdgeList
		th   int64
	}{
		{"uniform", gen.Uniform(3000, 24000, 5), 14},
		{"rmat-11", rmat.Generate(rmat.DefaultParams(11)), 8},
		{"rmat-12", rmat.Generate(rmat.DefaultParams(12)), 16},
	}
}

func TestPrevisitMatchesPerBit(t *testing.T) {
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	rng := rand.New(rand.NewSource(11))
	var oddD bool
	var ddOnly, dnOnly int64
	for _, g := range kernelGraphs() {
		s := kernelSession(t, g.el, shape, g.th, DefaultOptions())
		oddD = oddD || s.d%64 != 0
		for _, gs := range s.gpus {
			ddOnly += gs.pg.DDSourceMask.CountExcluding(gs.pg.DNSourceMask)
			dnOnly += gs.pg.DNSourceMask.CountExcluding(gs.pg.DDSourceMask)
			// Densities 0 and 1 are the empty and the full frontier.
			for _, density := range []float64{0, 0.01, 0.2, 0.7, 1} {
				randomMask(gs.dFront, rng, density)
				before := gs.it.delegateStream
				got := previsitCopy(s, gs)
				gotCharge := gs.it.delegateStream - before
				want, wantCharge := previsitPerBit(s, gs)
				if !slices.Equal(got.qDD, want.qDD) || !slices.Equal(got.qDN, want.qDN) {
					t.Fatalf("%s gpu %d density %v: queues differ (|qDD| %d vs %d, |qDN| %d vs %d)",
						g.name, gs.pg.GPU, density, len(got.qDD), len(want.qDD), len(got.qDN), len(want.qDN))
				}
				if got.fvDD != want.fvDD || got.fvDN != want.fvDN || got.maxDD != want.maxDD || got.maxDN != want.maxDN {
					t.Fatalf("%s gpu %d density %v: workloads differ: got fv %d/%d max %d/%d, want fv %d/%d max %d/%d",
						g.name, gs.pg.GPU, density, got.fvDD, got.fvDN, got.maxDD, got.maxDN,
						want.fvDD, want.fvDN, want.maxDD, want.maxDN)
				}
				if gotCharge != wantCharge {
					t.Fatalf("%s gpu %d density %v: delegate stream charged %v, want %v",
						g.name, gs.pg.GPU, density, gotCharge, wantCharge)
				}
			}
		}
	}
	if !oddD {
		t.Error("no graph has a delegate count that is not a multiple of 64")
	}
	if ddOnly == 0 || dnOnly == 0 {
		t.Errorf("coverage: %d delegates with dd but no dn edges, %d with dn but no dd", ddOnly, dnOnly)
	}
}

// previsitCopy runs the production previsit with an empty normal frontier
// and returns a copy of its output (the queues alias reused buffers).
func previsitCopy(s *Session, gs *gpuState) previsitOut {
	gs.inFront = gs.inFront[:0]
	out := s.previsit(gs)
	out.qDD = slices.Clone(out.qDD)
	out.qDN = slices.Clone(out.qDN)
	return out
}

// TestKernelsLeaveOnlyNewDelegates runs the delegate kernels from a random
// mid-BFS state, all forward and all backward, and checks the new-delegate
// mask against its definition: no visited bit survives, and the set is
// exactly what the per-bit kernels would have found.
func TestKernelsLeaveOnlyNewDelegates(t *testing.T) {
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	const iter = 2
	for _, dir := range []metrics.Direction{metrics.Forward, metrics.Backward} {
		opts := DefaultOptions()
		opts.DirectionOptimized = dir == metrics.Backward
		rng := rand.New(rand.NewSource(23))
		for _, g := range kernelGraphs() {
			s := kernelSession(t, g.el, shape, g.th, opts)
			for _, gs := range s.gpus {
				randomMask(gs.visited, rng, 0.3)
				gs.dFront.Reset()
				gs.visited.ForEach(func(di int64) {
					if rng.Intn(3) == 0 {
						gs.dFront.Set(di)
					}
				})
				gs.inFront = gs.inFront[:0]
				for v := range gs.levels {
					gs.levels[v] = int32(rng.Intn(iter+2)) - 1 // -1 … iter
					if gs.levels[v] == iter {
						gs.inFront = append(gs.inFront, uint32(v))
					}
				}
				want := newDelegatesRef(gs, dir, iter)
				gs.newMask.Reset()
				gs.dirDD, gs.dirND = dir, dir // DO keeps a backward kernel backward
				s.runKernels(gs, iter, gs.dFront.Count(), s.d-gs.visited.Count())
				if gs.dirDD != dir || gs.dirND != dir {
					t.Fatalf("%s gpu %d: kernels ran %v/%v, want %v", g.name, gs.pg.GPU, gs.dirDD, gs.dirND, dir)
				}
				if overlap := gs.newMask.Count() - gs.newMask.CountExcluding(gs.visited); overlap != 0 {
					t.Fatalf("%s gpu %d %v: %d visited delegates left in newMask", g.name, gs.pg.GPU, dir, overlap)
				}
				if !gs.newMask.Equal(want) {
					t.Fatalf("%s gpu %d %v: newMask has %d bits, reference %d",
						g.name, gs.pg.GPU, dir, gs.newMask.Count(), want.Count())
				}
				if !want.Any() {
					t.Fatalf("%s gpu %d %v: the kernels found nothing; the state exercises nothing", g.name, gs.pg.GPU, dir)
				}
			}
		}
	}
}

// newDelegatesRef computes the delegates dd and nd discover from the
// current state, bit by bit: forward pushes from the frontiers, backward
// pulls from unvisited source-mask members with a qualifying local parent.
func newDelegatesRef(gs *gpuState, dir metrics.Direction, iter int32) *bitmask.Mask {
	want := bitmask.New(gs.visited.Len())
	if dir == metrics.Forward {
		gs.dFront.ForEach(func(u int64) {
			for _, dv := range gs.pg.DD.Neighbors(u) {
				want.Set(int64(dv))
			}
		})
		for _, u := range gs.inFront {
			for _, dv := range gs.pg.ND.Neighbors(int64(u)) {
				want.Set(int64(dv))
			}
		}
		want.AndNot(gs.visited)
		return want
	}
	for u := int64(0); u < want.Len(); u++ {
		if gs.visited.Get(u) {
			continue
		}
		for _, dv := range gs.pg.DD.Neighbors(u) {
			if gs.visited.Get(int64(dv)) {
				want.Set(u)
			}
		}
		for _, lv := range gs.pg.DN.Neighbors(u) {
			if l := gs.levels[lv]; l >= 0 && l <= iter {
				want.Set(u)
			}
		}
	}
	return want
}
