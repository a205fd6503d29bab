// Package ituadirect is an independent re-implementation of the ITUA
// stochastic process as a direct continuous-time simulation (Gillespie-style
// stochastic simulation algorithm over explicit entity state), sharing no
// mechanism with the SAN formalism, the composed-model machinery, or the
// event-heap engine in internal/sim. Agreement between the two
// implementations on every measure is the strongest internal-validation
// evidence this reproduction offers: the probability of both encodings of
// the model being wrong in the same way is small.
//
// Because every timer in the ITUA model is exponential, the process is a
// CTMC and the SSA (total-rate jump sampling) is exact.
//
// The process is also exported as a steppable Process with lifecycle Hooks,
// and that is how the live arm (internal/rsm) drives real replicas: it
// reuses this attack law rather than re-implementing it. The live arm's
// independence from the model comes from what the hooks act on — real
// replicas running Bracha agreement over a lossy, partitionable transport
// and probed by a client — not from a second copy of the attack process.
package ituadirect

import (
	"context"
	"fmt"
	"runtime/debug"

	"ituaval/internal/core"
	"ituaval/internal/rng"
)

// Opts configures optional behaviour of one replication.
type Opts struct {
	// CRN enables common-random-numbers mode: every stochastic role (the
	// initial placement, the jump-time clock, the transition selector, and
	// each entity's outcome trials) samples from its own substream derived
	// from the replication stream by the stable hash of the role's name.
	// Two configurations differing only in policy then consume identical
	// randomness for identical roles — the same attack classes, detection
	// outcomes, and placements — so their per-replication measures are
	// positively correlated and their difference admits a paired estimator.
	// Results stay deterministic for a fixed seed but are not
	// bit-compatible with single-stream runs of the same seed.
	CRN bool
	// Hooks are notified of replica lifecycle events as the process
	// evolves. Calling them draws no random numbers, so setting them
	// never changes the trajectory.
	Hooks Hooks
}

// Hooks notifies an observer (the live cluster) of replica lifecycle events
// as the attack process evolves. Nil hooks are skipped. Host indices are
// flattened g = domain*HostsPerDomain + host, replica slots are
// per-application.
type Hooks struct {
	// StartReplica fires when app's slot is (re)placed on host, at
	// construction time and on recovery.
	StartReplica func(app, slot, host int)
	// CorruptReplica fires when an attack corrupts app's slot.
	CorruptReplica func(app, slot int)
	// ConvictReplica fires when the group or the IDS convicts app's slot,
	// possibly before the management response (KillReplica) can run: the
	// model then counts the member as running and non-Byzantine, so the
	// live group masks its Byzantine script until the kill lands.
	ConvictReplica func(app, slot int)
	// KillReplica fires when the management response removes app's slot
	// (conviction response or host exclusion).
	KillReplica func(app, slot int)
	// ExcludeHost fires when host g is excluded from the system.
	ExcludeHost func(host int)
	// Partition fires when the environment severs domains domA and domB
	// (at most one partition is active at a time); the live transport
	// should drop traffic between hosts of the two domains.
	Partition func(domA, domB int)
	// Heal fires when the active partition heals; the live transport
	// should restore all links.
	Heal func()
}

// Member is one placed replica of an application.
type Member struct {
	Slot int // replica slot index
	Host int // flattened host index
	// Corrupt: the replica is corrupt and undetected (counts toward undet).
	Corrupt bool
	// Convicted: the group/IDS convicted it but the management response is
	// still pending (blocked on manager quorum). The live group quarantines
	// convicted members.
	Convicted bool
}

// Process is one replication of the attack CTMC: the explicit entity state,
// advanced one exponential jump at a time with Step. Time is in hours.
type Process struct {
	p  core.Params
	rs *rng.Stream
	h  Hooks

	// CRN role substreams (nil when disabled): see Opts.CRN. Entity roles
	// are keyed by stable names ("host[g]", "mgr[g]", "app[a].rep[r]",
	// "app[a].recovery"), so the same entity draws the same outcome
	// sequence under either exclusion policy.
	crn          bool
	timeStream   *rng.Stream
	selectStream *rng.Stream
	envStream    *rng.Stream
	hostRoles    []*rng.Stream
	mgrRoles     []*rng.Stream
	repRoles     [][]*rng.Stream
	recRoles     []*rng.Stream

	hostRate, repRate, mgrRate  float64 // per-entity base attack rates
	hostFalseRate, repFalseRate float64
	pClass                      [3]float64 // script, exploratory, innovative
	detectClass                 [3]float64

	// hosts, flattened g = d*H + h
	hostStatus   []int // 0 ok, 1..3 corrupt by class
	hostExcluded []bool
	hostDetected []bool // host-OS IDS trial consumed
	propDomDone  []bool
	propSysDone  []bool
	mgrCorrupt   []bool // corrupt and undetected
	mgrRemoved   []bool
	mgrDetected  []bool

	domExcluded []bool
	spreadDom   []int // intra-domain propagation events per domain

	spreadSys  int
	intrusions int

	// replica slots [a][r]
	onHost       [][]int // -1 = empty, else flattened host index
	repCorrupt   [][]bool
	repConvicted [][]bool
	repDetected  [][]bool

	running []int
	undet   []int
	grpFail []bool
	// grpFailBlocked records, per app, whether grpFail latched while the
	// partition isolated the group (see ByzantineBlocked).
	grpFailBlocked []bool
	needRec        []int

	exclEvents      int
	exclCorruptFrac float64 // sum of per-exclusion corrupt fractions

	// Environment faults (mirroring core's Environment submodel). partA
	// and partB are the severed domains of the single active partition
	// (-1 = healed); inService[a] is true while a repair-crew member
	// serves app a's recovery, and crewBusy counts claimed members
	// (crewBusy = Σ inService, crewBusy <= Params.RepairCrew).
	partA, partB int
	inService    []bool
	crewBusy     int

	buf []transition // enabled transitions, reused across steps
}

// Result collects one replication's measures for the measured application
// (app 0) and the system.
type Result struct {
	// UnavailTime[i] is the improper-service time of app 0 accumulated in
	// [0, horizons[i]].
	UnavailTime []float64
	// ByzantineBy[i] reports whether app 0 suffered a Byzantine fault by
	// horizons[i].
	ByzantineBy []bool
	// FracDomainsExcluded[i] at horizons[i].
	FracDomainsExcluded []float64
	// CorruptFracAtExclusion is the mean over exclusion events in the full
	// run (NaN if none).
	CorruptFracAtExclusion float64
	// RunningAtEnd is the number of app-0 replicas running at the last
	// horizon.
	RunningAtEnd int
}

// Run simulates one replication up to the largest horizon, recording the
// measures at each horizon. Horizons must be ascending and non-empty.
func Run(p core.Params, seed *rng.Stream, horizons []float64) (Result, error) {
	return RunContext(context.Background(), p, seed, horizons)
}

// RunContext is Run with cooperative cancellation and panic isolation: the
// SSA event loop polls ctx every few hundred events, so cancelling ctx (or
// attaching a deadline to it) aborts a runaway replication with ctx.Err()
// instead of hanging the sweep, and a panic inside the process is returned
// as an error carrying the stack.
func RunContext(ctx context.Context, p core.Params, seed *rng.Stream, horizons []float64) (Result, error) {
	return RunContextOpts(ctx, p, seed, horizons, Opts{})
}

// RunContextOpts is RunContext with explicit options (see Opts).
func RunContextOpts(ctx context.Context, p core.Params, seed *rng.Stream, horizons []float64, o Opts) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("ituadirect: panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("ituadirect: %w", err)
	}
	if len(horizons) == 0 {
		return Result{}, fmt.Errorf("ituadirect: no horizons")
	}
	return newProcess(p, seed, o).run(ctx, horizons)
}

// NewProcess validates p and builds the process in its initial state
// (replicas placed, no corruption), firing StartReplica for every initial
// placement. With Opts.CRN off it draws from rs exactly as Run does, so a
// Process stepped to a horizon follows Run's trajectory for the same stream.
func NewProcess(p core.Params, rs *rng.Stream, o Opts) (*Process, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ituadirect: %w", err)
	}
	return newProcess(p, rs, o), nil
}

func newProcess(p core.Params, rs *rng.Stream, o Opts) *Process {
	D, H, A, R := p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp
	n := D * H
	s := &Process{
		p: p, rs: rs, h: o.Hooks,
		hostStatus:     make([]int, n),
		hostExcluded:   make([]bool, n),
		hostDetected:   make([]bool, n),
		propDomDone:    make([]bool, n),
		propSysDone:    make([]bool, n),
		mgrCorrupt:     make([]bool, n),
		mgrRemoved:     make([]bool, n),
		mgrDetected:    make([]bool, n),
		domExcluded:    make([]bool, D),
		spreadDom:      make([]int, D),
		running:        make([]int, A),
		undet:          make([]int, A),
		grpFail:        make([]bool, A),
		grpFailBlocked: make([]bool, A),
		needRec:        make([]int, A),
		partA:          -1,
		partB:          -1,
		inService:      make([]bool, A),
	}
	// Per-entity rates: recompute the same division core.Params performs,
	// but independently (from the documented semantics, not shared code
	// beyond the parameter struct).
	wSum := p.AttackSplitHost + p.AttackSplitReplica + p.AttackSplitMgr
	hosts := float64(n)
	if p.RateBaseHosts > 0 {
		hosts = float64(p.RateBaseHosts)
	}
	initialReps := p.RepsPerApp
	if p.NumDomains < initialReps {
		initialReps = p.NumDomains
	}
	replicas := float64(p.NumApps * initialReps)
	if p.RateBaseReplicas > 0 {
		replicas = float64(p.RateBaseReplicas)
	}
	s.hostRate = p.TotalAttackRate * p.AttackSplitHost / wSum / hosts
	s.repRate = p.TotalAttackRate * p.AttackSplitReplica / wSum / replicas
	s.mgrRate = p.TotalAttackRate * p.AttackSplitMgr / wSum / hosts
	fSum := p.FalseSplitHost + p.FalseSplitReplica
	s.hostFalseRate = p.TotalFalseAlarmRate * p.FalseSplitHost / fSum / hosts
	s.repFalseRate = p.TotalFalseAlarmRate * p.FalseSplitReplica / fSum / replicas
	s.pClass = [3]float64{p.PScript, p.PExploratory, p.PInnovative}
	s.detectClass = [3]float64{p.DetectScript, p.DetectExploratory, p.DetectInnovative}

	initStream := rs
	if o.CRN {
		s.crn = true
		s.timeStream = rs.RoleNamed("__time__")
		s.selectStream = rs.RoleNamed("__select__")
		s.envStream = rs.RoleNamed("__env__")
		s.hostRoles = make([]*rng.Stream, n)
		s.mgrRoles = make([]*rng.Stream, n)
		for g := 0; g < n; g++ {
			s.hostRoles[g] = rs.RoleNamed(fmt.Sprintf("host[%d]", g))
			s.mgrRoles[g] = rs.RoleNamed(fmt.Sprintf("mgr[%d]", g))
		}
		s.recRoles = make([]*rng.Stream, A)
		s.repRoles = make([][]*rng.Stream, A)
		for a := 0; a < A; a++ {
			s.recRoles[a] = rs.RoleNamed(fmt.Sprintf("app[%d].recovery", a))
			s.repRoles[a] = make([]*rng.Stream, R)
			for r := 0; r < R; r++ {
				s.repRoles[a][r] = rs.RoleNamed(fmt.Sprintf("app[%d].rep[%d]", a, r))
			}
		}
		initStream = rs.RoleNamed("__init__")
	}

	// Initial placement: min(R, D) replicas per app on distinct uniformly
	// chosen domains, uniform host within each.
	s.onHost = make([][]int, A)
	s.repCorrupt = make([][]bool, A)
	s.repConvicted = make([][]bool, A)
	s.repDetected = make([][]bool, A)
	perm := make([]int, D)
	for a := 0; a < A; a++ {
		s.onHost[a] = make([]int, R)
		for r := range s.onHost[a] {
			s.onHost[a][r] = -1
		}
		s.repCorrupt[a] = make([]bool, R)
		s.repConvicted[a] = make([]bool, R)
		s.repDetected[a] = make([]bool, R)
		initStream.Perm(perm)
		k := R
		if D < k {
			k = D
		}
		for i := 0; i < k; i++ {
			g := s.chooseHost(initStream, perm[i])
			s.onHost[a][i] = g
			s.running[a]++
			if s.h.StartReplica != nil {
				s.h.StartReplica(a, i, g)
			}
		}
	}
	return s
}

// Members returns app a's placed replicas in slot order: the group the live
// service runs, including convicted-pending (quarantined) members.
func (s *Process) Members(a int) []Member {
	var out []Member
	for r, g := range s.onHost[a] {
		if g < 0 {
			continue
		}
		out = append(out, Member{
			Slot:      r,
			Host:      g,
			Corrupt:   s.repCorrupt[a][r] && !s.repConvicted[a][r],
			Convicted: s.repConvicted[a][r],
		})
	}
	return out
}

// Running returns the number of placed replicas of app a (the model's
// replicas_running, which still counts convicted-pending members).
func (s *Process) Running(a int) int { return s.running[a] }

// Undet returns the number of corrupt undetected replicas of app a.
func (s *Process) Undet(a int) int { return s.undet[a] }

// Improper is the model's unavailability predicate for app a in the current
// state: at least one third of the running replicas corrupt undetected
// (vacuously true with zero replicas running), or the active partition
// isolating the whole replica group across the cut.
func (s *Process) Improper(a int) bool {
	return 3*s.undet[a] >= s.running[a] || s.partitionIsolated(a)
}

// Byzantine reports whether app a has latched the model's Byzantine-failure
// flag (undetected corrupt replicas reached one third while nonzero).
func (s *Process) Byzantine(a int) bool { return s.grpFail[a] }

// ByzantineBlocked reports whether app a's Byzantine latch fired while the
// partition isolated the group. The model latches on corruption share
// alone, but in that geometry the colluders cannot reach the correct
// replicas to force a forged delivery, so a live service may legitimately
// never certify a wrong answer — the one environment-induced case where the
// model's unreliability bounds the measured value from above instead of
// equalling it.
func (s *Process) ByzantineBlocked(a int) bool { return s.grpFailBlocked[a] }

// Partitioned returns the severed domain pair of the active partition, or
// ok = false while the network is healed.
func (s *Process) Partitioned() (domA, domB int, ok bool) {
	if s.partA < 0 {
		return 0, 0, false
	}
	return s.partA, s.partB, true
}

// CrewBusy returns the number of claimed repair-crew members (always zero
// with Params.RepairCrew == 0, i.e. unbounded repair capacity).
func (s *Process) CrewBusy() int { return s.crewBusy }

// FracDomainsExcluded is the model's excluded-domain fraction measure
// (zero under host exclusion, as in the paper).
func (s *Process) FracDomainsExcluded() float64 {
	if s.p.Policy == core.HostExclusion {
		return 0
	}
	n := 0
	for _, e := range s.domExcluded {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(s.domExcluded))
}

func (s *Process) domainOf(g int) int { return g / s.p.HostsPerDomain }

// The *Rand accessors return the stream a given stochastic role draws from:
// its own substream under CRN, the single replication stream otherwise.

func (s *Process) hostRand(g int) *rng.Stream {
	if s.crn {
		return s.hostRoles[g]
	}
	return s.rs
}

func (s *Process) mgrRand(g int) *rng.Stream {
	if s.crn {
		return s.mgrRoles[g]
	}
	return s.rs
}

func (s *Process) repRand(a, r int) *rng.Stream {
	if s.crn {
		return s.repRoles[a][r]
	}
	return s.rs
}

func (s *Process) recRand(a int) *rng.Stream {
	if s.crn {
		return s.recRoles[a]
	}
	return s.rs
}

func (s *Process) timeRand() *rng.Stream {
	if s.crn {
		return s.timeStream
	}
	return s.rs
}

func (s *Process) selectRand() *rng.Stream {
	if s.crn {
		return s.selectStream
	}
	return s.rs
}

func (s *Process) envRand() *rng.Stream {
	if s.crn {
		return s.envStream
	}
	return s.rs
}

// hostLoad counts the replicas currently running on host g.
func (s *Process) hostLoad(g int) int {
	n := 0
	for a := range s.onHost {
		for _, h := range s.onHost[a] {
			if h == g {
				n++
			}
		}
	}
	return n
}

// chooseHost picks a live host of domain d per the placement strategy,
// mirroring core's semantics, drawing from the caller's role stream.
func (s *Process) chooseHost(rs *rng.Stream, d int) int {
	H := s.p.HostsPerDomain
	var hostsUp []int
	for h := 0; h < H; h++ {
		if !s.hostExcluded[d*H+h] {
			hostsUp = append(hostsUp, d*H+h)
		}
	}
	switch s.p.Placement {
	case core.LeastLoadedPlacement:
		best := hostsUp[0]
		for _, g := range hostsUp[1:] {
			if s.hostLoad(g) < s.hostLoad(best) {
				best = g
			}
		}
		return best
	case core.WeightedRandomPlacement:
		weights := make([]float64, len(hostsUp))
		for i, g := range hostsUp {
			weights[i] = 1 / (1 + float64(s.hostLoad(g)))
		}
		return hostsUp[rs.Category(weights)]
	default:
		return hostsUp[rs.Choose(len(hostsUp))]
	}
}

// hasReplica reports whether app a has a running replica in domain d.
func (s *Process) hasReplica(a, d int) bool {
	for _, g := range s.onHost[a] {
		if g >= 0 && s.domainOf(g) == d {
			return true
		}
	}
	return false
}

func (s *Process) mgrsRunning() int {
	n := 0
	for g := range s.mgrRemoved {
		if !s.hostExcluded[g] {
			n++
		}
	}
	return n
}

func (s *Process) undetMgrs() int {
	n := 0
	for g := range s.mgrCorrupt {
		if s.mgrCorrupt[g] && !s.hostExcluded[g] {
			n++
		}
	}
	return n
}

func (s *Process) globalQuorumOK() bool {
	// An active partition blocks the system-wide management quorum (the
	// same conservative reading as core: no global majority view while
	// any two domains cannot talk).
	if s.partA >= 0 {
		return false
	}
	return 3*s.undetMgrs() < s.mgrsRunning()
}

// cutsDomain reports whether domain d is on either side of the active
// partition.
func (s *Process) cutsDomain(d int) bool {
	return s.partA >= 0 && (d == s.partA || d == s.partB)
}

func (s *Process) domainGroupOK(d int) bool {
	H := s.p.HostsPerDomain
	up, corrupt := 0, 0
	for h := 0; h < H; h++ {
		g := d*H + h
		if !s.hostExcluded[g] {
			up++
			if s.mgrCorrupt[g] {
				corrupt++
			}
		}
	}
	return 3*corrupt < up
}

// partitionIsolated reports whether the active partition splits app a's
// placed replicas across the cut with none outside it: every running
// replica is in one of the severed domains with at least one on each side,
// so no relay path exists and neither side holds a response majority
// (mirrors core.Model.Improper).
func (s *Process) partitionIsolated(a int) bool {
	if s.partA < 0 {
		return false
	}
	sawA, sawB := false, false
	for _, g := range s.onHost[a] {
		if g < 0 {
			continue
		}
		switch s.domainOf(g) {
		case s.partA:
			sawA = true
		case s.partB:
			sawB = true
		default:
			return false
		}
	}
	return sawA && sawB
}

func (s *Process) checkByzantine(a int) {
	if s.undet[a] > 0 && 3*s.undet[a] >= s.running[a] && !s.grpFail[a] {
		s.grpFail[a] = true
		s.grpFailBlocked[a] = s.partitionIsolated(a)
	}
}

// spreadBoost is the linear rate increase on host-OS attacks in domain d.
func (s *Process) spreadBoost(d int) float64 {
	return s.p.SpreadRateCoeff * (s.p.DomainSpreadRate*float64(s.spreadDom[d]) +
		s.p.SystemSpreadRate*float64(s.spreadSys))
}

// assetBoost is the linear rate increase on replica/manager attacks from
// intra-domain spread.
func (s *Process) assetBoost(d int) float64 {
	return s.p.AssetSpreadCoeff * s.p.DomainSpreadRate * float64(s.spreadDom[d])
}
