package stream

import "sort"

// StreamHealth is one stream's live state as the ops plane reports it
// (/healthz): enough to see at a glance whether a peer is making
// progress — per-stream incarnation, the in-flight window, advertised
// credit, and the delivery/completion cursors on the receiving side.
// Field names are the JSON schema the CI ops-boot check pins.
type StreamHealth struct {
	Key         string `json:"key"`  // sender/agent->receiver/group
	Role        string `json:"role"` // "send" or "recv"
	Incarnation uint64 `json:"incarnation"`
	Broken      bool   `json:"broken"`

	// Sender-side cursors (Role == "send").
	NextSeq     uint64 `json:"next_seq,omitempty"`     // seq the next call gets
	NextResolve uint64 `json:"next_resolve,omitempty"` // seq whose outcome resolves next
	InFlight    uint64 `json:"in_flight,omitempty"`    // unresolved calls outstanding
	Credit      uint64 `json:"credit,omitempty"`       // receiver's advertised admission frontier

	// Receiver-side cursors (Role == "recv").
	Epoch     uint64 `json:"epoch,omitempty"`     // receiver boot epoch
	Expected  uint64 `json:"expected,omitempty"`  // next seq to deliver to user code
	Completed uint64 `json:"completed,omitempty"` // contiguous completion prefix
}

// Health snapshots every live stream on the peer, both roles, sorted by
// (role, key) so repeated scrapes are directly diffable. The snapshot
// takes each stream's lock briefly; it is meant for an ops endpoint
// polled by humans and scrapers, not for the hot path.
func (p *Peer) Health() []StreamHealth {
	p.mu.Lock()
	sends := make([]*Stream, 0, len(p.sends))
	for _, s := range p.sends {
		sends = append(sends, s)
	}
	recvs := make([]*rstream, 0, len(p.recvs))
	for _, r := range p.recvs {
		recvs = append(recvs, r)
	}
	p.mu.Unlock()

	out := make([]StreamHealth, 0, len(sends)+len(recvs))
	for _, s := range sends {
		s.mu.Lock()
		out = append(out, StreamHealth{
			Key:         s.keyStr,
			Role:        "send",
			Incarnation: s.incarnation,
			Broken:      s.broken,
			NextSeq:     s.nextSeq,
			NextResolve: s.nextResolve,
			InFlight:    s.nextSeq - s.nextResolve,
			Credit:      s.grantThrough,
		})
		s.mu.Unlock()
	}
	for _, r := range recvs {
		r.mu.Lock()
		out = append(out, StreamHealth{
			Key:         r.keyStr,
			Role:        "recv",
			Incarnation: r.incarnation,
			Broken:      r.broken,
			Epoch:       r.epoch,
			Expected:    r.nextRun,
			Completed:   r.completedThroughNow(),
		})
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Key < out[j].Key
	})
	return out
}
