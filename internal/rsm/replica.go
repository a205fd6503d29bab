package rsm

import (
	"fmt"
	"sort"

	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

// node is one live replica process of the measured application.
type node struct {
	slot int
	host int
	// behavior is nil for an honest replica; otherwise the Byzantine script
	// the corrupted replica runs (the groupcomm repertoire).
	behavior groupcomm.Behavior
	// convicted marks a replica whose group/IDS conviction is still
	// awaiting its management response (blocked on manager quorum). The
	// model counts it as a running, non-Byzantine member until the kill
	// lands — conviction neutralizes the corruption — so the live group
	// keeps it as a member with its Byzantine script masked (see convict).
	convicted bool

	// Per-attempt protocol state of an honest replica.
	bracha    *groupcomm.Bracha
	probe     uint64
	attempt   uint8
	expected  string
	leader    groupcomm.ProcessID
	index     groupcomm.ProcessID // this node's index within the attempt group
	inited    bool
	responded bool
}

// ProbeOutcome classifies one client probe of the live service.
type ProbeOutcome int

const (
	// ProbeCorrect: the client certified the expected value — at least
	// ⌈(n+1)/2⌉ members answered it.
	ProbeCorrect ProbeOutcome = iota
	// ProbeWrong: the client certified a value different from the expected
	// one — a Byzantine service failure (unreliability event).
	ProbeWrong
	// ProbeUnavailable: no value reached the response threshold within the
	// retry budget.
	ProbeUnavailable
)

func (o ProbeOutcome) String() string {
	switch o {
	case ProbeCorrect:
		return "correct"
	case ProbeWrong:
		return "wrong"
	case ProbeUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("ProbeOutcome(%d)", int(o))
	}
}

// clusterSpec is the slice of Spec the cluster needs.
type clusterSpec struct {
	probeAttempts int     // extra retry attempts beyond the rotation minimum
	probeBatches  int     // transport batches per attempt
	backoff       float64 // idle time between attempts, hours
	fairAdversary bool
	behavior      func(slot int, rs *rng.Stream) groupcomm.Behavior
}

// cluster is the live replica group of the measured application plus the
// synthetic client. The attack process mutates it through hook calls; the
// client probes it through the transport.
type cluster struct {
	rs    *rng.Stream
	tr    *Transport
	spec  clusterSpec
	nodes map[int]*node // by slot
	probe uint64
}

func newCluster(rs *rng.Stream, tr *Transport, spec clusterSpec) *cluster {
	if spec.probeBatches <= 0 {
		spec.probeBatches = 4096
	}
	if spec.behavior == nil {
		spec.behavior = func(int, *rng.Stream) groupcomm.Behavior {
			// Collude is the default corruption repertoire: the worst-case
			// adversary whose live effect matches the model's one-third
			// failure predicate exactly (see DESIGN.md, "Live validation").
			return groupcomm.Collude{Value: "byz"}
		}
	}
	return &cluster{rs: rs, tr: tr, spec: spec, nodes: make(map[int]*node)}
}

// Lifecycle hooks, driven by ituadirect.Hooks.

func (c *cluster) start(slot, host int) {
	c.nodes[slot] = &node{slot: slot, host: host}
	c.tr.Register(NodeID(slot), host)
}

func (c *cluster) corrupt(slot int) {
	if n := c.nodes[slot]; n != nil {
		n.behavior = c.spec.behavior(slot, c.rs)
	}
}

// convict handles a group/IDS conviction whose management response may
// still be pending: the group has identified the traitor, so its Byzantine
// script is masked — divergent agreement traffic ignored, answers forced
// correct — which is exactly how the model accounts for it (removed from
// undet, still counted running) until the kill lands. A convicted replica
// cannot be re-attacked (the model's attack guard), so masking is stable.
func (c *cluster) convict(slot int) {
	if n := c.nodes[slot]; n != nil {
		n.convicted = true
		n.behavior = nil
	}
}

func (c *cluster) kill(slot int) {
	delete(c.nodes, slot)
	c.tr.Unregister(NodeID(slot))
}

// members returns the probe group: the placed replicas in slot order.
func (c *cluster) members() []*node {
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].slot < out[j].slot })
	return out
}

// Probe issues one client request against the current group and reports the
// outcome. Each attempt rotates the leader and runs the full agreement
// protocol over the transport; retries are bounded (rotation covers f+1
// distinct leaders, so an honest leader is reached whenever the group is
// within its fault threshold) with idle backoff between attempts.
func (c *cluster) Probe() ProbeOutcome {
	c.probe++
	members := c.members()
	n := len(members)
	if n == 0 {
		return ProbeUnavailable
	}
	f := groupcomm.MaxTolerance(n)
	attempts := f + 1 + c.spec.probeAttempts
	expected := fmt.Sprintf("v%d", c.probe)
	for at := 0; at < attempts; at++ {
		if at > 0 {
			c.tr.AdvanceIdle(float64(at) * 4 * c.tr.latencyMean) // retry backoff
		}
		leader := members[at%n]
		if outcome, decided := c.attempt(members, leader, uint8(at), expected, n, f); decided {
			return outcome
		}
	}
	return ProbeUnavailable
}

// attempt runs one leader-rotation attempt. decided = false means the
// attempt was inconclusive (no value certified before the transport went
// quiet or the batch budget ran out) and the caller should rotate.
func (c *cluster) attempt(members []*node, leader *node, at uint8, expected string, n, f int) (ProbeOutcome, bool) {
	group := make([]groupcomm.ProcessID, n)
	bySlot := make(map[NodeID]*node, n)
	for i, m := range members {
		group[i] = groupcomm.ProcessID(i)
		bySlot[NodeID(m.slot)] = m
		m.index = groupcomm.ProcessID(i)
		m.probe, m.attempt = c.probe, at
		if m.behavior == nil {
			m.bracha = groupcomm.NewBracha(m.index, n, f)
			m.expected = expected
			m.leader = leader.index
			m.inited, m.responded = false, false
		}
	}

	// The adversary speaks first: corrupted members inject their script's
	// messages for the early protocol rounds up front, with the scheduling
	// privilege (zero latency) unless FairAdversary revokes it.
	for _, m := range members {
		if m.behavior == nil {
			continue
		}
		for round := 0; round <= 6; round++ {
			for _, gm := range m.behavior.Act(m.index, group, round, nil) {
				gm.From = m.index // authenticated channels
				if int(gm.To) < n {
					c.sendWire(m, members[gm.To], gm, !c.spec.fairAdversary)
				}
			}
		}
	}

	// The client multicasts its request.
	req := WireMsg{Kind: KindRequest, Probe: c.probe, Attempt: at, From: int32(ClientID), Value: expected}
	for _, m := range members {
		c.tr.Send(ClientID, NodeID(m.slot), req.Encode(), false)
	}

	// Event loop: drain the transport, dispatch, tally responses.
	responses := make(map[int]string, n) // responder slot → value
	threshold := n/2 + 1                 // ⌈(n+1)/2⌉
	for batch := 0; batch < c.spec.probeBatches && !c.tr.Quiet(); batch++ {
		for _, pkt := range c.tr.DeliverBatch() {
			wm, err := Decode(pkt.Payload)
			if err != nil || wm.Probe != c.probe || wm.Attempt != at {
				continue // stale traffic from an earlier attempt, or garbage
			}
			if pkt.To == ClientID {
				if wm.Kind == KindResponse && bySlot[pkt.From] != nil {
					if _, dup := responses[int(pkt.From)]; !dup {
						responses[int(pkt.From)] = wm.Value
					}
				}
				continue
			}
			m := bySlot[pkt.To]
			if m == nil {
				continue
			}
			if m.behavior != nil {
				c.dispatchByzantine(m, wm)
				continue
			}
			// Authenticated channels: the sender identity is the transport
			// source, never the (forgeable) wire From field.
			var sender groupcomm.ProcessID
			switch {
			case pkt.From == ClientID:
				if wm.Kind != KindRequest {
					continue
				}
			case bySlot[pkt.From] != nil:
				sender = bySlot[pkt.From].index
				if wm.Kind == KindRequest {
					continue // only the client issues requests
				}
			default:
				continue
			}
			c.dispatchHonest(m, members, wm, sender)
		}
		counts := make(map[string]int)
		for _, v := range responses {
			counts[v]++
		}
		for v, k := range counts {
			if k >= threshold {
				if v == expected {
					return ProbeCorrect, true
				}
				return ProbeWrong, true
			}
		}
	}
	return ProbeUnavailable, false
}

// dispatchHonest feeds one message to an honest replica's protocol state.
// sender is the authenticated group index of the source (ignored for
// client requests).
func (c *cluster) dispatchHonest(m *node, members []*node, wm WireMsg, sender groupcomm.ProcessID) {
	switch wm.Kind {
	case KindRequest:
		// External validity anchor: the replica now knows the client's
		// value. The leader orders it; everyone else waits for the INIT.
		if m.index == m.leader && !m.inited {
			m.inited = true
			init := groupcomm.Message{From: m.index, Type: groupcomm.MsgInit, Value: m.expected}
			for _, to := range members {
				c.sendWire(m, to, init, false)
			}
		}
	case KindInit, KindEcho, KindReady:
		gm := groupcomm.Message{From: sender, To: m.index, Value: wm.Value}
		switch wm.Kind {
		case KindInit:
			// External validity: only the designated leader's INIT of the
			// client's own value enters the protocol — a corrupt leader
			// cannot get honest echoes for a forged value.
			if wm.Value != m.expected {
				return
			}
			gm.Type = groupcomm.MsgInit
		case KindEcho:
			gm.Type = groupcomm.MsgEcho
		case KindReady:
			gm.Type = groupcomm.MsgReady
		}
		for _, out := range m.bracha.Step(gm, m.leader) {
			for _, to := range members {
				c.sendWire(m, to, out, false)
			}
		}
		if v, ok := m.bracha.Delivered(); ok && !m.responded {
			m.responded = true
			resp := WireMsg{Kind: KindResponse, Probe: m.probe, Attempt: m.attempt, From: int32(m.slot), Value: v}
			c.tr.Send(NodeID(m.slot), ClientID, resp.Encode(), false)
		}
	}
}

// dispatchByzantine handles traffic to a corrupted replica. Its agreement
// messages were injected up front; here it only answers the client, per its
// behavior's Responder extension (silent if the behavior has none).
func (c *cluster) dispatchByzantine(m *node, wm WireMsg) {
	if wm.Kind != KindRequest {
		return
	}
	r, ok := m.behavior.(groupcomm.Responder)
	if !ok {
		return
	}
	v, answer := r.Respond(wm.Probe)
	if !answer {
		return
	}
	resp := WireMsg{Kind: KindResponse, Probe: wm.Probe, Attempt: wm.Attempt, From: int32(m.slot), Value: v}
	c.tr.Send(NodeID(m.slot), ClientID, resp.Encode(), !c.spec.fairAdversary)
}

// sendWire encodes a groupcomm message from m to the member to and sends it.
func (c *cluster) sendWire(m *node, to *node, gm groupcomm.Message, urgent bool) {
	var kind MsgKind
	switch gm.Type {
	case groupcomm.MsgInit:
		kind = KindInit
	case groupcomm.MsgEcho:
		kind = KindEcho
	case groupcomm.MsgReady:
		kind = KindReady
	default:
		return
	}
	wm := WireMsg{Kind: kind, Probe: c.probe, Attempt: m.attempt, From: int32(gm.From), Value: gm.Value}
	c.tr.Send(NodeID(m.slot), NodeID(to.slot), wm.Encode(), urgent)
}
