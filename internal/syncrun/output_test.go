package syncrun

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// typedOutAlgo outputs its distance through OutputBody; node 0 outputs
// through the Output convenience (a bool).
type typedOutAlgo struct{}

func (typedOutAlgo) Init(n API) {
	if n.ID() == 0 {
		n.Output(true)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (typedOutAlgo) Pulse(n API, p int, recvd []Incoming) {
	if len(recvd) == 0 || n.HasOutput() {
		return
	}
	n.OutputBody(outval.Encode(n.ID(), p))
	for _, nb := range n.Neighbors() {
		if nb.Node != recvd[0].From {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

// TestTypedOutputs checks both output calls decode correctly at the
// Result boundary in the default (map) mode.
func TestTypedOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).Run()
	want := map[graph.NodeID]any{0: true, 1: 1, 2: 2, 3: 3}
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Fatalf("outputs = %v, want %v", res.Outputs, want)
	}
}

// TestDenseOutputs checks the dense mode: every output lands in
// OutBodies/OutSet and no map is built.
func TestDenseOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).
		WithDenseOutputs().Run()
	if res.Outputs != nil {
		t.Fatalf("dense-mode map = %v, want nil", res.Outputs)
	}
	want := map[graph.NodeID]any{0: true, 1: 1, 2: 2, 3: 3}
	if got := outval.DecodeDense(res.OutBodies, res.OutSet); !reflect.DeepEqual(got, want) {
		t.Fatalf("dense outputs decode to %v, want %v", got, want)
	}
}

// stringOutAlgo outputs a value Output has no encoding for.
type stringOutAlgo struct{}

func (stringOutAlgo) Init(n API)                 { n.Output("x") }
func (stringOutAlgo) Pulse(API, int, []Incoming) {}

// TestOutputRefusesUnencodable: Output of a string panics, naming the
// node, the type and OutputBody, the call that takes struct results.
func TestOutputRefusesUnencodable(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"node 0", "string", "OutputBody"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	New(graph.Path(2), func(graph.NodeID) Handler { return stringOutAlgo{} }).WithMode(ModeSingle).Run()
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
