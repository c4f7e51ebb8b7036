package main

import (
	"fmt"

	"gcbfs"
	"gcbfs/internal/core"
	"gcbfs/internal/wire"
)

// loadKind is what the clients of a workload call.
type loadKind int

const (
	loadRun    loadKind = iota // both clients call Service.Run
	loadSweep                  // both clients call Service.RunSweep
	loadMutate                 // one client calls Run, the other ApplyDelta then Repair
)

// workload is one graph, cluster and configuration plus the closed loop its
// two clients drive. Why is the one-line reason BENCHMARK.json repeats.
type workload struct {
	Name, Why string
	// Ungated, when set, is why BENCHMARK.json leaves the workload out: it
	// still runs by name and prints every figure, but nothing gates on it.
	Ungated string
	Load    loadKind
	Web     bool // the library's WebGraph instead of Graph500 RMAT
	Scale   int
	Cluster gcbfs.Cluster
	Config  func(gcbfs.Cluster) gcbfs.Config
	Parents bool // the configuration collects parents, so checks cover the tree
	Pool    int  // distinct sources the clients cycle through
}

// clients is the closed loop's client count: one per CPU of the two-vCPU
// machine the bounds were set on.
const clients = 2

// sweepWidth is how many distinct sources one RunSweep call carries.
const sweepWidth = gcbfs.DefaultSweepWidth

var workloads = []*workload{
	{
		Name:    "rmat-run",
		Why:     "paper's headline: RMAT-16 on 2x2x2, auto threshold (~45% delegates), no codec, all-pairs; host time in core kernels and mask reduction",
		Load:    loadRun,
		Scale:   16,
		Cluster: gcbfs.Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		Config:  gcbfs.DefaultConfig,
		Pool:    64,
	},
	{
		Name:    "rmat-exchange",
		Why:     "point-to-point tier: RMAT-16 on 4x2x2, threshold 64 (~10% delegates), adaptive codec, hybrid exchange; host time in wire, exchange, mpi",
		Load:    loadRun,
		Scale:   16,
		Cluster: gcbfs.Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2},
		Config: func(c gcbfs.Cluster) gcbfs.Config {
			cfg := gcbfs.DefaultConfig(c)
			cfg.Threshold = 64
			cfg.Compression = gcbfs.CompressionAdaptive
			cfg.Exchange = gcbfs.ExchangeHybrid
			return cfg
		},
		Pool: 64,
	},
	{
		Name:    "rmat-sweep",
		Why:     "multi-source engine: rmat-run's graph and config, each call a 64-source RunSweep; answers_per_s against rmat-run's shows host amortisation",
		Load:    loadSweep,
		Scale:   16,
		Cluster: gcbfs.Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		Config:  gcbfs.DefaultConfig,
		Pool:    2 * sweepWidth,
		Ungated: "on a shared 2-vCPU machine its host figures drifted with the machine's load more than the Run " +
			"workloads': over ten seeds latency_ms_p50 spread by 18% (quartiles over median), answers_per_s by 13%",
	},
	{
		Name:    "web-mutate",
		Why:     "writes beside reads: WebGraph(13), 300+ iterations, parents; a reader Runs while a writer times ApplyDelta+Repair of 0.1% deltas and their inverses",
		Load:    loadMutate,
		Web:     true,
		Scale:   13,
		Cluster: gcbfs.Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		Config: func(c gcbfs.Cluster) gcbfs.Config {
			cfg := gcbfs.DefaultConfig(c)
			cfg.CollectParents = true
			return cfg
		},
		Parents: true,
		Pool:    256,
		Ungated: "on a 2-vCPU machine its host figures moved between processes, same seed or not: over eight seeds " +
			"latency_ms_p50 spread by 17% and answers_per_s by 21% (quartiles over median)",
	},
}

// gated returns the workloads BENCHMARK.json lists.
func gated() []*workload {
	var ws []*workload
	for _, w := range workloads {
		if w.Ungated == "" {
			ws = append(ws, w)
		}
	}
	return ws
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// engineOptions maps a service Config onto the core options the service
// builds its plan with, so the benchmark's own plan runs the same traversal.
// It covers the knobs the workloads set.
func engineOptions(cfg gcbfs.Config) core.Options {
	o := core.DefaultOptions()
	o.DirectionOptimized = cfg.DirectionOptimized
	o.LocalAll2All = cfg.LocalAll2All
	o.Uniquify = cfg.Uniquify
	o.BlockingReduce = cfg.BlockingReduce
	o.WorkAmplification = cfg.WorkAmplification
	o.CollectLevels = cfg.CollectLevels
	o.CollectParents = cfg.CollectParents
	o.PipelineHops = cfg.Pipeline
	o.FlatExchange = cfg.FlatExchange
	o.Compression = wire.ModeOff
	if cfg.Compression == gcbfs.CompressionAdaptive {
		o.Compression = wire.ModeAdaptive
	}
	o.Exchange = core.ExchangeAllPairs
	if cfg.Exchange == gcbfs.ExchangeHybrid {
		o.Exchange = core.ExchangeHybrid
	}
	return o
}

// shape is the core form of a cluster.
func shape(c gcbfs.Cluster) core.ClusterShape {
	return core.ClusterShape{Nodes: c.Nodes, RanksPerNode: c.RanksPerNode, GPUsPerRank: c.GPUsPerRank}
}
