package reg

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// NaiveModule is the "natural attempt" of §3.2: every registration and
// deregistration is routed hop-by-hop to the cluster root, which counts
// them and broadcasts a Go-Ahead when they match. The paper points out
// that this is essentially the scheme of [AP90a] and that it congests: an
// edge below which Θ(n) clients register carries Θ(n) messages serially,
// so operations take Ω(n) time even on shallow trees. Experiment E7
// measures exactly that against the wave-based Module.
type NaiveModule struct {
	proto   async.Proto
	cov     *cover.Cover
	cb      Callbacks
	stageOf func(int) int

	// Per (cluster, session) relay and root state.
	states map[key]*naiveState
}

type key struct {
	c cover.ClusterID
	s int
}

type naiveState struct {
	// root-only bookkeeping
	regs, deregs int
	goIssued     bool
	// relay bookkeeping: children through which clients below registered
	// (Go-Ahead is broadcast along these).
	downRoutes map[graph.NodeID]bool
	local      localState
}

// Wire kinds of the naive scheme (namespace: this module's proto); these
// deliberately reuse the wave module's numeric space — the two schemes
// never share a proto. Payloads carry A = cluster, B = session, and
// C = origin (the registering client; acks route back toward it).
const (
	nkReg wire.Kind = iota + 1
	nkRegAck
	nkDereg
	nkDeregAck
	nkGo
)

// naivePayload is the decoded form of one naive-scheme message.
type naivePayload struct {
	Kind    wire.Kind
	Cluster cover.ClusterID
	Session int
	Origin  graph.NodeID
}

func encNaive(p naivePayload) wire.Body {
	return wire.Body{Kind: p.Kind, A: int64(p.Cluster), B: int64(p.Session), C: int64(p.Origin)}
}

func decNaive(b wire.Body) naivePayload {
	return naivePayload{Kind: b.Kind, Cluster: cover.ClusterID(b.A), Session: int(b.B), Origin: graph.NodeID(b.C)}
}

var _ async.Module = (*NaiveModule)(nil)

// NewNaive builds the baseline registration module.
func NewNaive(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *NaiveModule {
	if stageOf == nil {
		stageOf = func(int) int { return 0 }
	}
	return &NaiveModule{
		proto:   proto,
		cov:     cov,
		cb:      cb,
		stageOf: stageOf,
		states:  make(map[key]*naiveState),
	}
}

// Start implements async.Module.
func (m *NaiveModule) Start(*async.Node) {}

// Ack implements async.Module.
func (m *NaiveModule) Ack(*async.Node, graph.NodeID, async.Msg) {}

func (m *NaiveModule) state(k key) *naiveState {
	st := m.states[k]
	if st == nil {
		st = &naiveState{downRoutes: make(map[graph.NodeID]bool)}
		m.states[k] = st
	}
	return st
}

func (m *NaiveModule) send(n *async.Node, to graph.NodeID, p naivePayload) {
	n.Send(to, async.Msg{Proto: m.proto, Stage: m.stageOf(p.Session), Body: encNaive(p)})
}

// Register sends this node's registration toward the root.
func (m *NaiveModule) Register(n *async.Node, c cover.ClusterID, session int) {
	st := m.state(key{c: c, s: session})
	if st.local != idle {
		panic(fmt.Sprintf("reg: naive double-register at %d", n.ID()))
	}
	st.local = registering
	m.handleReg(n, naivePayload{Kind: nkReg, Cluster: c, Session: session, Origin: n.ID()}, st)
}

// Deregister sends this node's deregistration toward the root.
func (m *NaiveModule) Deregister(n *async.Node, c cover.ClusterID, session int) {
	st := m.state(key{c: c, s: session})
	if st.local != registered {
		panic(fmt.Sprintf("reg: naive deregister before registered at %d", n.ID()))
	}
	st.local = deregistered
	m.handleDereg(n, naivePayload{Kind: nkDereg, Cluster: c, Session: session, Origin: n.ID()}, st)
}

// Recv implements async.Module.
func (m *NaiveModule) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	p := decNaive(msg.Body)
	st := m.state(key{c: p.Cluster, s: p.Session})
	switch p.Kind {
	case nkReg:
		st.downRoutes[from] = true
		m.handleReg(n, p, st)
	case nkDereg:
		m.handleDereg(n, p, st)
	case nkRegAck, nkDeregAck:
		m.routeDown(n, p, st)
	case nkGo:
		m.handleGo(n, p, st)
	default:
		panic(fmt.Sprintf("reg: naive unknown kind %d", p.Kind))
	}
}

func (m *NaiveModule) handleReg(n *async.Node, p naivePayload, st *naiveState) {
	r := m.cov.Ref(n.ID(), p.Cluster)
	if r.Parent < 0 {
		st.regs++
		if p.Origin == n.ID() {
			m.finishReg(n, p, st)
		} else {
			m.send(n, m.nextHopDown(n, p), naivePayload{Kind: nkRegAck, Cluster: p.Cluster, Session: p.Session, Origin: p.Origin})
		}
		return
	}
	m.send(n, r.Parent, p)
}

func (m *NaiveModule) handleDereg(n *async.Node, p naivePayload, st *naiveState) {
	r := m.cov.Ref(n.ID(), p.Cluster)
	if r.Parent < 0 {
		st.deregs++
		if p.Origin == n.ID() {
			m.finishDereg(n, p, st)
		} else {
			m.send(n, m.nextHopDown(n, p), naivePayload{Kind: nkDeregAck, Cluster: p.Cluster, Session: p.Session, Origin: p.Origin})
		}
		m.rootCheckGo(n, p, st)
		return
	}
	m.send(n, r.Parent, p)
}

// rootCheckGo issues the broadcast when registrations match
// deregistrations. Matching counts with regs > 0 approximates "everyone
// who will register has deregistered" — the naive scheme cannot know more,
// which is part of its weakness; the experiment drives it so that counts
// match exactly once.
func (m *NaiveModule) rootCheckGo(n *async.Node, p naivePayload, st *naiveState) {
	if st.goIssued || st.regs == 0 || st.regs != st.deregs {
		return
	}
	st.goIssued = true
	m.handleGo(n, naivePayload{Kind: nkGo, Cluster: p.Cluster, Session: p.Session}, st)
}

func (m *NaiveModule) handleGo(n *async.Node, p naivePayload, st *naiveState) {
	if st.local == deregistered {
		st.local = free
		m.cb.GoAhead(n, p.Cluster, p.Session)
	}
	for _, ch := range slices.Sorted(maps.Keys(st.downRoutes)) {
		m.send(n, ch, naivePayload{Kind: nkGo, Cluster: p.Cluster, Session: p.Session})
	}
}

// routeDown forwards an ack toward its origin along the cluster tree.
func (m *NaiveModule) routeDown(n *async.Node, p naivePayload, st *naiveState) {
	if p.Origin == n.ID() {
		switch p.Kind {
		case nkRegAck:
			m.finishReg(n, p, st)
		case nkDeregAck:
			m.finishDereg(n, p, st)
		}
		return
	}
	m.send(n, m.nextHopDown(n, p), p)
}

func (m *NaiveModule) finishReg(n *async.Node, p naivePayload, st *naiveState) {
	st.local = registered
	m.cb.Registered(n, p.Cluster, p.Session)
}

func (m *NaiveModule) finishDereg(*async.Node, naivePayload, *naiveState) {
	// Deregistration acks carry no client-visible event; the client waits
	// for the Go-Ahead broadcast.
}

// nextHopDown returns this node's child on the tree path toward the
// origin.
func (m *NaiveModule) nextHopDown(n *async.Node, p naivePayload) graph.NodeID {
	v := p.Origin
	for {
		par := m.cov.Ref(v, p.Cluster).Parent
		if par < 0 {
			panic(fmt.Sprintf("reg: naive route-down from %d missed origin %d", n.ID(), p.Origin))
		}
		if par == n.ID() {
			return v
		}
		v = par
	}
}

// LocalDone reports whether this node's client has been freed.
func (m *NaiveModule) LocalDone(c cover.ClusterID, session int) bool {
	st := m.states[key{c: c, s: session}]
	return st != nil && st.local == free
}
