package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// The simulated clock is a pure function of counted work, so a kernel
// rewrite that keeps the counts keeps every one of these values bit for bit.
// Any drift in an edge count, a charged vertex count or a direction decision
// shows up here exactly, where the trajectory's GTEPS gate would tolerate a
// few percent.

// clockPin is the exact simulated-clock fingerprint of one query.
type clockPin struct {
	edges   int64
	simBits uint64
	// iters lists each iteration as "DD DN ND/frontierDelegates".
	iters string
}

func pinOf(r *metrics.RunResult) clockPin {
	var b strings.Builder
	for i, it := range r.PerIteration {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s,%s,%s/%d", it.DirDD, it.DirDN, it.DirND, it.FrontierDelegates)
	}
	return clockPin{edges: r.EdgesScanned, simBits: math.Float64bits(r.SimSeconds), iters: b.String()}
}

func checkPin(t *testing.T, name string, got, want clockPin) {
	t.Helper()
	if got != want {
		t.Errorf("%s: simulated clock moved\n got  {%d, %#x, %q}\n want {%d, %#x, %q}",
			name, got.edges, got.simBits, got.iters, want.edges, want.simBits, want.iters)
	}
}

// TestSimClockGoldenPin pins RMAT-14 on 2×2×2 at the auto (4n/p) delegate
// threshold: Plan.Run with direction optimization on and off, and one
// RunRepair after a mixed 1% delta.
func TestSimClockGoldenPin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two RMAT-14 epochs")
	}
	ctx := context.Background()
	el := rmat.Generate(rmat.DefaultParams(14))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	cfg := shape.PartitionConfig()
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	sg, err := partition.Distribute(el, partition.Separate(el, th), cfg)
	if err != nil {
		t.Fatal(err)
	}
	source := repairSource(el)

	runs := []struct {
		name string
		opts Options
		want clockPin
	}{
		{"do-on", DefaultOptions(), clockPin{26953, 0x3f3316ddd565aec5,
			"fwd,fwd,fwd/1 bwd,bwd,bwd/3427 bwd,bwd,bwd/4751 bwd,bwd,bwd/1 bwd,bwd,bwd/0"}},
		{"do-off", PlainBFSOptions(), clockPin{524268, 0x3f3367beea73c321,
			"fwd,fwd,fwd/1 fwd,fwd,fwd/3427 fwd,fwd,fwd/4751 fwd,fwd,fwd/1 fwd,fwd,fwd/0"}},
	}
	var prior *metrics.RunResult
	for _, r := range runs {
		opts := r.opts
		opts.CollectParents = true
		p, err := NewPlanEpoch(sg, shape, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ctx, source, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, r.name, pinOf(res), r.want)
		if prior == nil {
			prior = res
		}
	}

	b := delta.Synthesize(el, 0.01, delta.KindMixed, 7)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, repairOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
	rep, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "repair", pinOf(rep), clockPin{359072, 0x3f32a2394261720b,
		"fwd,fwd,fwd/1403 fwd,fwd,fwd/1090 fwd,fwd,fwd/2 fwd,fwd,fwd/0"})
}
