package syncrun

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// typedOutAlgo outputs its distance through the typed path at pulse 1 and
// node 0 additionally exercises the legacy boxed escape (a string).
type typedOutAlgo struct{}

func (typedOutAlgo) Init(n API) {
	if n.ID() == 0 {
		n.Output("root") // non-encodable: boxed escape slot
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (typedOutAlgo) Pulse(n API, p int, recvd []Incoming) {
	if len(recvd) == 0 || n.HasOutput() {
		return
	}
	b, _ := outval.Encode(p)
	n.OutputBody(b)
	for _, nb := range n.Neighbors() {
		if nb.Node != recvd[0].From {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

// TestTypedOutputs checks both storage paths decode correctly at the
// Result boundary in the default (map) mode.
func TestTypedOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).Run()
	want := map[graph.NodeID]any{0: "root", 1: 1, 2: 2, 3: 3}
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Fatalf("outputs = %v, want %v", res.Outputs, want)
	}
}

// TestDenseOutputs checks the dense mode: typed outputs land in
// OutBodies/OutSet, only the legacy escape materializes in the map.
func TestDenseOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).
		WithDenseOutputs().Run()
	if len(res.Outputs) != 1 || res.Outputs[0] != "root" {
		t.Fatalf("dense-mode map = %v, want only the legacy escape", res.Outputs)
	}
	for v := 1; v <= 3; v++ {
		if !res.OutSet[v] {
			t.Fatalf("node %d missing from OutSet", v)
		}
		if got := outval.DecodeDense(res.OutBodies, res.OutSet, res.Outputs)[graph.NodeID(v)]; got != v {
			t.Fatalf("node %d dense output = %v, want %d", v, got, v)
		}
	}
	if !res.OutSet[0] || res.OutBodies[0].Kind != 0 {
		t.Fatal("legacy escape should appear in OutSet with a zero-kind body")
	}
}

// TestDenseOutputsModeIdentical pins dense-output equality across the
// lockstep execution modes.
func TestDenseOutputsModeIdentical(t *testing.T) {
	g := graph.RandomConnected(300, 700, 3)
	mk := func(graph.NodeID) Handler { return typedOutAlgo{} }
	single := New(g, mk).WithMode(ModeSingle).WithDenseOutputs().Run()
	multi := New(g, mk).WithMode(ModeMulti).WithMinParallel(1).WithDenseOutputs().Run()
	if !reflect.DeepEqual(single, multi) {
		t.Fatal("dense results differ across modes")
	}
}
