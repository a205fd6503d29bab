package ituadirect

import (
	"fmt"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/rng"
)

// stepParams is the small one-app configuration the stepping tests use.
func stepParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	return p
}

// mirror maintains an observer's view of app 0 purely from hook calls, so
// the test can check that the hook protocol alone reconstructs the
// process's member state — the property the live cluster depends on.
type mirror struct {
	host      map[int]int
	corrupt   map[int]bool
	convicted map[int]bool
	trace     []string
}

func newMirror() *mirror {
	return &mirror{host: map[int]int{}, corrupt: map[int]bool{}, convicted: map[int]bool{}}
}

func (m *mirror) hooks() Hooks {
	return Hooks{
		StartReplica: func(a, slot, host int) {
			if a != 0 {
				return
			}
			m.host[slot] = host
			delete(m.corrupt, slot)
			delete(m.convicted, slot)
			m.trace = append(m.trace, fmt.Sprintf("start %d@%d", slot, host))
		},
		CorruptReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			m.corrupt[slot] = true
			m.trace = append(m.trace, fmt.Sprintf("corrupt %d", slot))
		},
		ConvictReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			delete(m.corrupt, slot)
			m.convicted[slot] = true
			m.trace = append(m.trace, fmt.Sprintf("convict %d", slot))
		},
		KillReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			delete(m.host, slot)
			delete(m.corrupt, slot)
			delete(m.convicted, slot)
			m.trace = append(m.trace, fmt.Sprintf("kill %d", slot))
		},
		ExcludeHost: func(host int) {
			m.trace = append(m.trace, fmt.Sprintf("exclude host %d", host))
		},
	}
}

func (m *mirror) check(t *testing.T, s *Process) {
	t.Helper()
	members := s.Members(0)
	if len(members) != len(m.host) {
		t.Fatalf("mirror has %d members, process %d", len(m.host), len(members))
	}
	undet := 0
	for _, mem := range members {
		if h, ok := m.host[mem.Slot]; !ok || h != mem.Host {
			t.Fatalf("slot %d: mirror host %d (ok=%v), process host %d", mem.Slot, h, ok, mem.Host)
		}
		if m.corrupt[mem.Slot] != mem.Corrupt {
			t.Fatalf("slot %d: mirror corrupt %v, process %v", mem.Slot, m.corrupt[mem.Slot], mem.Corrupt)
		}
		if m.convicted[mem.Slot] != mem.Convicted {
			t.Fatalf("slot %d: mirror convicted %v, process %v", mem.Slot, m.convicted[mem.Slot], mem.Convicted)
		}
		if mem.Corrupt {
			undet++
		}
	}
	if len(members) != s.Running(0) {
		t.Fatalf("Members(0) has %d entries, Running(0) = %d", len(members), s.Running(0))
	}
	if undet != s.Undet(0) {
		t.Fatalf("%d corrupt members, Undet(0) = %d", undet, s.Undet(0))
	}
	if want := 3*s.Undet(0) >= s.Running(0); s.Improper(0) != want {
		t.Fatalf("Improper(0) = %v, predicate says %v", s.Improper(0), want)
	}
}

// The hook protocol must reconstruct the process's member state exactly
// after every transition, across both exclusion policies.
func TestHooksMirrorState(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := stepParams()
		p.Policy = policy
		p.NumDomains = 4
		p.HostsPerDomain = 2
		p.RepsPerApp = 4
		for seed := uint64(1); seed <= 20; seed++ {
			m := newMirror()
			s, err := NewProcess(p, rng.New(seed), Opts{Hooks: m.hooks()})
			if err != nil {
				t.Fatal(err)
			}
			m.check(t, s)
			now := 0.0
			for {
				dt, fired := s.Step(6 - now)
				now += dt
				if !fired {
					break
				}
				m.check(t, s)
			}
		}
	}
}

// Same seed → identical trajectory (hook trace and final measures).
func TestStepDeterministic(t *testing.T) {
	run := func() (*mirror, *Process) {
		m := newMirror()
		s, err := NewProcess(stepParams(), rng.New(42), Opts{Hooks: m.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for {
			dt, fired := s.Step(6 - now)
			now += dt
			if !fired {
				break
			}
		}
		return m, s
	}
	m1, s1 := run()
	m2, s2 := run()
	if len(m1.trace) != len(m2.trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(m1.trace), len(m2.trace))
	}
	for i := range m1.trace {
		if m1.trace[i] != m2.trace[i] {
			t.Fatalf("trace[%d]: %q vs %q", i, m1.trace[i], m2.trace[i])
		}
	}
	if s1.Byzantine(0) != s2.Byzantine(0) || s1.FracDomainsExcluded() != s2.FracDomainsExcluded() {
		t.Fatal("final measures differ across identical seeds")
	}
}

// Step must never apply a jump beyond the horizon: the state (and hook
// trace) after a capped Step is identical to the state before it.
func TestStepRespectsHorizon(t *testing.T) {
	m := newMirror()
	s, err := NewProcess(stepParams(), rng.New(9), Opts{Hooks: m.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	traceLen := len(m.trace)
	running, undet := s.Running(0), s.Undet(0)
	dt, fired := s.Step(1e-12) // virtually certain to cap
	if fired {
		t.Skip("jump landed inside 1e-12 hours; astronomically unlikely")
	}
	if dt != 1e-12 {
		t.Fatalf("capped Step returned dt = %v, want the cap", dt)
	}
	if len(m.trace) != traceLen || s.Running(0) != running || s.Undet(0) != undet {
		t.Fatal("capped Step mutated state")
	}
}

// The Partition/Heal hooks must track Partitioned exactly, and the repair
// crew must stay within its bound, with every environment fault enabled.
func TestEnvironmentHooksMirrorState(t *testing.T) {
	p := stepParams()
	p.NumDomains, p.HostsPerDomain, p.RepsPerApp = 4, 2, 4
	p.PartitionRate, p.PartitionHealRate = 2, 4
	p.CampaignRate, p.CampaignSize, p.CampaignProb = 0.5, 2, 0.5
	p.RepairCrew = 1
	cuts := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cut := [2]int{-1, -1}
		s, err := NewProcess(p, rng.New(seed), Opts{Hooks: Hooks{
			Partition: func(da, db int) { cut = [2]int{da, db}; cuts++ },
			Heal:      func() { cut = [2]int{-1, -1} },
		}})
		if err != nil {
			t.Fatal(err)
		}
		for now := 0.0; ; {
			dt, fired := s.Step(6 - now)
			now += dt
			if !fired {
				break
			}
			want := [2]int{-1, -1}
			if da, db, ok := s.Partitioned(); ok {
				want = [2]int{da, db}
			}
			if cut != want {
				t.Fatalf("seed %d: hooks say cut %v, Partitioned() says %v", seed, cut, want)
			}
			if c := s.CrewBusy(); c < 0 || c > p.RepairCrew {
				t.Fatalf("seed %d: CrewBusy() = %d outside [0, %d]", seed, c, p.RepairCrew)
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no partition fired; the test has no power")
	}
}
