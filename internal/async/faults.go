package async

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// FaultSchedule is a seeded, pure-function fault plane: node crash/recover
// intervals, link up/down epochs, and per-(link, transmission) message
// drops. Every decision is a hash of (Seed, identity, epoch-or-seq) — no
// state, no clock reads — so the schedule answers identically no matter
// which execution mode, worker, or shard asks, and byte-identical runs
// stay byte-identical under faults.
//
// The crash model is a receive blackout: a node crashed at time t loses
// every data message that would arrive at t (the sender's retransmit
// budget pays for the outage), while the link-level ack channel stays
// reliable — the sender always learns the fate of an attempt. Crashes and
// link outages are epoch-granular (whole multiples of EpochLen) and
// recover on their own; drops are per-transmission and independent.
//
// The zero schedule (all probabilities zero) injects nothing; Budget then
// only matters if a probability is raised.
type FaultSchedule struct {
	// Seed keys every hash; two schedules with different seeds fault
	// different (node, epoch) and (link, seq) sets.
	Seed uint64
	// CrashP is the per-(node, epoch) crash probability in [0, 1).
	CrashP float64
	// DropP is the per-transmission message-loss probability in [0, 1).
	DropP float64
	// LinkP is the per-(undirected link, epoch) outage probability in
	// [0, 1). A down link loses data messages in both directions.
	LinkP float64
	// Budget is how many retransmissions follow a lost attempt before the
	// message surfaces as Undeliverable (total attempts = 1 + Budget).
	Budget int
	// Backoff is the base retransmit delay; attempt k waits
	// Backoff * 2^k, clamped into [adversary MinDelay, 1]. Zero means
	// defaultBackoff.
	Backoff float64
	// EpochLen is the crash/link epoch length in normalized time units;
	// zero means 1 (the normalized delay unit τ).
	EpochLen float64
}

// defaultBackoff is the base retransmit delay when Backoff is zero: 1/64
// of the normalized time unit, doubling per attempt.
const defaultBackoff = 1.0 / 64

// maxRetransmitBudget bounds Budget: event timestamps and counters stay
// sane, and an exhausted budget is reachable in bounded simulated time.
const maxRetransmitBudget = 64

// Salts separate the three hash families.
const (
	saltCrash uint64 = 0xC5A5C5A5C5A5C5A5
	saltLink  uint64 = 0x11BB11BB11BB11BB
	saltDrop  uint64 = 0xD80FD80FD80FD80F
)

// Validate checks the schedule's parameters; engines and CLIs reject a bad
// schedule before anything runs.
func (f *FaultSchedule) Validate() error {
	check := func(name string, p float64) error {
		if math.IsNaN(p) || p < 0 || p >= 1 {
			return fmt.Errorf("faults: %s probability %g outside [0, 1)", name, p)
		}
		return nil
	}
	if err := check("crash", f.CrashP); err != nil {
		return err
	}
	if err := check("drop", f.DropP); err != nil {
		return err
	}
	if err := check("link", f.LinkP); err != nil {
		return err
	}
	if f.Budget < 0 || f.Budget > maxRetransmitBudget {
		return fmt.Errorf("faults: retransmit budget %d outside [0, %d]", f.Budget, maxRetransmitBudget)
	}
	if math.IsNaN(f.Backoff) || f.Backoff < 0 || f.Backoff > 1 {
		return fmt.Errorf("faults: backoff %g outside [0, 1]", f.Backoff)
	}
	if math.IsNaN(f.EpochLen) || f.EpochLen < 0 {
		return fmt.Errorf("faults: epoch length %g negative", f.EpochLen)
	}
	return nil
}

// epochLen resolves the default.
func (f *FaultSchedule) epochLen() float64 {
	if f.EpochLen == 0 {
		return 1
	}
	return f.EpochLen
}

// Epoch maps a simulation time to its fault epoch index.
func (f *FaultSchedule) Epoch(t float64) uint64 {
	if t <= 0 {
		return 0
	}
	return uint64(t / f.epochLen())
}

// rand01 maps a hash to [0, 1).
func rand01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// CrashedEpoch reports whether node v is crashed throughout epoch e.
func (f *FaultSchedule) CrashedEpoch(v graph.NodeID, e uint64) bool {
	if f.CrashP <= 0 {
		return false
	}
	return rand01(mix(f.Seed^saltCrash, mix(uint64(uint32(v)), e))) < f.CrashP
}

// LinkDownEpoch reports whether the undirected link {a, b} is down
// throughout epoch e.
func (f *FaultSchedule) LinkDownEpoch(a, b graph.NodeID, e uint64) bool {
	if f.LinkP <= 0 {
		return false
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	return rand01(mix(f.Seed^saltLink, mix(key, e))) < f.LinkP
}

// Drop reports whether transmission seq on the directed link from→to is
// dropped on the wire (independent of crashes and link epochs).
func (f *FaultSchedule) Drop(from, to graph.NodeID, seq uint64) bool {
	if f.DropP <= 0 {
		return false
	}
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	return rand01(mix(f.Seed^saltDrop, mix(key, seq))) < f.DropP
}

// Lost is the engine's single dispatch-time question: is the transmission
// with sequence seq on from→to, arriving at time tArrive, lost — dropped
// on the wire, addressed to a crashed receiver, or riding a down link?
func (f *FaultSchedule) Lost(from, to graph.NodeID, seq uint64, tArrive float64) bool {
	if f.DropP <= 0 && f.CrashP <= 0 && f.LinkP <= 0 {
		return false
	}
	if f.Drop(from, to, seq) {
		return true
	}
	e := f.Epoch(tArrive)
	return f.CrashedEpoch(to, e) || f.LinkDownEpoch(from, to, e)
}

// Active reports whether the schedule can fault anything at all.
func (f *FaultSchedule) Active() bool {
	return f != nil && (f.CrashP > 0 || f.DropP > 0 || f.LinkP > 0)
}

// CrashedSet returns the sorted node ids of [0, n) crashed during epoch e
// — the construction layer's invalidation input (see core.BuildLayeredFor's
// epoch cache).
func (f *FaultSchedule) CrashedSet(n int, e uint64) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < n; v++ {
		if f.CrashedEpoch(graph.NodeID(v), e) {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// backoff is attempt k's retransmit delay: exponential in k, floored at
// the adversary's declared MinDelay so a retransmission never lands inside
// the bounded-lag safe window, capped at the normalized unit.
func (f *FaultSchedule) backoff(attempt uint8, lookahead float64) float64 {
	base := f.Backoff
	if base <= 0 {
		base = defaultBackoff
	}
	d := base * float64(uint64(1)<<attempt)
	if d < lookahead {
		d = lookahead
	}
	if d > 1 {
		d = 1
	}
	return d
}

// String renders the schedule in ParseFaultSpec's grammar (canonical
// clause order; defaulted fields are omitted).
func (f *FaultSchedule) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if f.CrashP > 0 {
		add("crash:p=" + strconv.FormatFloat(f.CrashP, 'g', -1, 64))
	}
	if f.DropP > 0 {
		add("drop:p=" + strconv.FormatFloat(f.DropP, 'g', -1, 64))
	}
	if f.LinkP > 0 {
		add("link:p=" + strconv.FormatFloat(f.LinkP, 'g', -1, 64))
	}
	if f.Budget != 0 {
		add("budget=" + strconv.Itoa(f.Budget))
	}
	if f.Seed != 0 {
		add("seed=" + strconv.FormatUint(f.Seed, 10))
	}
	if f.Backoff != 0 {
		add("backoff=" + strconv.FormatFloat(f.Backoff, 'g', -1, 64))
	}
	if f.EpochLen != 0 {
		add("epoch=" + strconv.FormatFloat(f.EpochLen, 'g', -1, 64))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses the -faults CLI grammar: comma-separated clauses
//
//	crash:p=0.01   per-(node, epoch) crash probability
//	drop:p=0.05    per-transmission loss probability
//	link:p=0.02    per-(link, epoch) outage probability
//	budget=3       retransmissions per lost message (default 0)
//	seed=7         schedule seed
//	backoff=0.125  base retransmit delay (default 1/64, doubling)
//	epoch=0.5      crash/link epoch length (default 1)
//
// "" and "none" mean no fault plane (nil schedule). The result is
// validated; wiring it around an adversary is faultyAdv{Inner, Schedule}.
func ParseFaultSpec(spec string) (*FaultSchedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	f := &FaultSchedule{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val := clause, ""
		if i := strings.IndexAny(clause, ":="); i >= 0 {
			key, val = clause[:i], clause[i+1:]
		}
		switch key {
		case "crash", "drop", "link":
			val = strings.TrimPrefix(val, "p=")
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s probability %q", key, val)
			}
			switch key {
			case "crash":
				f.CrashP = p
			case "drop":
				f.DropP = p
			case "link":
				f.LinkP = p
			}
		case "budget":
			b, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad budget %q", val)
			}
			f.Budget = b
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			f.Seed = s
		case "backoff":
			b, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad backoff %q", val)
			}
			f.Backoff = b
		case "epoch":
			e, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad epoch length %q", val)
			}
			f.EpochLen = e
		default:
			return nil, fmt.Errorf("faults: unknown clause %q (want crash:p=, drop:p=, link:p=, budget=, seed=, backoff=, epoch=)", clause)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// faultyAdv wraps any delay adversary with a fault schedule. Delays — and the
// MinDelay lookahead the bounded-lag and speculative executors build
// windows from — pass through unchanged; the engine unwraps the schedule
// at New/Reset and consults it at dispatch, once per transmission attempt.
type faultyAdv struct {
	Inner    Adversary
	Schedule *FaultSchedule
}

// Delay delegates to the wrapped adversary.
func (f faultyAdv) Delay(from, to graph.NodeID, seq uint64, p Proto) float64 {
	return f.Inner.Delay(from, to, seq, p)
}

// MinDelay preserves the wrapped adversary's lookahead declaration.
func (f faultyAdv) MinDelay() float64 { return f.Inner.MinDelay() }

// Name tags the wrapped adversary's name with the fault spec.
func (f faultyAdv) Name() string { return f.Inner.Name() + "+faults(" + f.Schedule.String() + ")" }

// WithFaults wraps adv with fs; a nil or inactive schedule returns adv
// unchanged so fault-free configurations pay nothing.
func WithFaults(adv Adversary, fs *FaultSchedule) Adversary {
	if !fs.Active() {
		return adv
	}
	return faultyAdv{Inner: adv, Schedule: fs}
}

// faultsOf extracts the fault schedule the engine enforces at dispatch.
func faultsOf(adv Adversary) *FaultSchedule {
	if f, ok := adv.(faultyAdv); ok && f.Schedule.Active() {
		return f.Schedule
	}
	return nil
}

// standardFaultSchedules is the suite robustness tests sweep: pure drops,
// drops with a deeper budget, epoch crashes, link churn, and the combined
// plane. All are deterministic in seed.
func standardFaultSchedules(seed uint64) []*FaultSchedule {
	return []*FaultSchedule{
		{Seed: seed, DropP: 0.05, Budget: 3},
		{Seed: seed ^ 0xFEED, DropP: 0.25, Budget: 1},
		{Seed: seed, CrashP: 0.02, Budget: 4, EpochLen: 0.5},
		{Seed: seed, LinkP: 0.05, Budget: 2},
		{Seed: seed ^ 0xBEEF, CrashP: 0.01, DropP: 0.1, LinkP: 0.02, Budget: 3},
	}
}
