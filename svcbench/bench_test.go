package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"gcbfs"
	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
)

// smallRMAT is a cheap stand-in for the RMAT workloads' input path.
var smallRMAT = &workload{Name: "small", Load: loadRun, Scale: 10, Pool: 8,
	Cluster: gcbfs.Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}, Config: gcbfs.DefaultConfig}

func TestSameSeedSameInputs(t *testing.T) {
	web, err := findWorkload("web-mutate")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workload{smallRMAT, web} {
		a, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.sources, b.sources) {
			t.Errorf("%s: sources differ under one seed", w.Name)
		}
		for j := range a.fwds {
			f, g := a.fwds[j], b.fwds[j]
			if !slices.Equal(f.Inserts, g.Inserts) || !slices.Equal(f.Deletes, g.Deletes) ||
				!slices.Equal(a.invs[j].Inserts, b.invs[j].Inserts) || !slices.Equal(a.invs[j].Deletes, b.invs[j].Deletes) {
				t.Errorf("%s: delta %d differs under one seed", w.Name, j)
			}
			if f.Size() == 0 {
				t.Errorf("%s: delta %d is empty", w.Name, j)
			}
			if !slices.Equal(a.invs[j].Inserts, f.Deletes) || !slices.Equal(a.invs[j].Deletes, f.Inserts) {
				t.Errorf("%s: invs[%d] is not the inverse of fwds[%d]", w.Name, j, j)
			}
		}
		c, err := makeInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(a.sources, c.sources) && slices.Equal(a.fwds[0].Inserts, c.fwds[0].Inserts) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.Name)
		}
	}
}

// TestInverseDeltaRestoresGraph checks the writer's loop cannot drift: each
// delta then its inverse give back the initial adjacency, and the epoch
// numbering names the graph each epoch holds.
func TestInverseDeltaRestoresGraph(t *testing.T) {
	web, _ := findWorkload("web-mutate")
	in, err := makeInputs(web, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur := in.els[0]
	for e := uint64(1); e <= 2*mutateDeltas+2; e++ {
		if !slices.Equal(edgeSet(cur), edgeSet(in.els[in.graphIndex(e)])) {
			t.Fatalf("epoch %d holds another graph than version %d", e, in.graphIndex(e))
		}
		next, err := delta.Apply(cur, internalBatch(in.nextDelta(e)))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		cur = next
	}
	if slices.Equal(edgeSet(in.els[1]), edgeSet(in.els[0])) {
		t.Error("the first delta left the graph unchanged")
	}
}

func internalBatch(d *gcbfs.Delta) *delta.Batch {
	b := &delta.Batch{}
	for _, e := range d.Inserts {
		b.Inserts = append(b.Inserts, graph.Edge{U: e.U, V: e.V})
	}
	for _, e := range d.Deletes {
		b.Deletes = append(b.Deletes, graph.Edge{U: e.U, V: e.V})
	}
	return b
}

// edgeSet returns the distinct directed edges, sorted.
func edgeSet(el *graph.EdgeList) []graph.Edge {
	s := slices.Clone(el.Edges)
	slices.SortFunc(s, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return slices.Compact(s)
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct{ p, refused, accepted int }{{50, 19, 20}, {75, 39, 40}, {90, 99, 100}, {99, 999, 1000}} {
		if _, err := percentile(seq(c.refused), c.p); err == nil {
			t.Errorf("p%d of %d samples accepted", c.p, c.refused)
		}
		v, err := percentile(seq(c.accepted), c.p)
		if err != nil {
			t.Errorf("p%d of %d samples refused: %v", c.p, c.accepted, err)
		}
		if want := float64(c.p * c.accepted / 100); v != want {
			t.Errorf("p%d of 1..%d = %v, want %v", c.p, c.accepted, v, want)
		}
	}
	if _, err := percentile(seq(1000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, extraEndToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q uses more than letters, digits, _, . and -", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, l := range traceLayers {
		if !seen[l+".self_frac"] {
			t.Errorf("trace layer %s has no self_frac metric", l)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := gated()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark gates %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, catalog %s %s %s %v", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, catalog %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Layer: "bench", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Layer: "core", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Layer: "core", Start: ms(4), End: ms(8)},
		{ID: 4, Parent: 3, Layer: "wire", Start: ms(5), End: ms(6)},
	}
	self, total := selfTimes(spans)
	if total != ms(10) {
		t.Errorf("root total %v, want 10ms", total)
	}
	// bench: 10 minus the union [2,8); core: 3 + 4 minus wire's 1; wire: 1.
	for layer, want := range map[string]time.Duration{"bench": ms(4), "core": ms(6), "wire": ms(1)} {
		if self[layer] != want {
			t.Errorf("%s self %v, want %v", layer, self[layer], want)
		}
	}
}

func TestChromeTrace(t *testing.T) {
	tr := newTracer(1)
	root := tr.begin(0, tr.newOp(), 0, "bench", "op")
	tr.begin(0, 1, root.id(), "core", "core.Plan.Run").end()
	root.end()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.spans()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Cat != "core" {
		t.Errorf("unexpected events %+v", doc.TraceEvents)
	}
	var nilTracer *tracer
	nilTracer.begin(0, 0, 0, "core", "x").end() // records nothing, must not panic
}
