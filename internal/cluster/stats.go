package cluster

// Stats is the cluster snapshot published through the server's /statsz.
// Counters are monotonic since process start; the ring fields describe the
// current membership view.
type Stats struct {
	NodeID      string   `json:"node_id"`
	Draining    bool     `json:"draining"`
	RingMembers []string `json:"ring_members"`
	RingVersion int64    `json:"ring_version"`
	Rehomes     int64    `json:"rehomes"` // membership changes that moved key arcs

	Batches        int64 `json:"batches"`         // batches routed through the cluster
	LocalPairs     int64 `json:"local_pairs"`     // pairs served because we own them
	ForwardedPairs int64 `json:"forwarded_pairs"` // pairs answered by a peer
	FallbackPairs  int64 `json:"fallback_pairs"`  // peer-owned pairs served locally after a failed forward
	ShortCircuits  int64 `json:"short_circuits"`  // forwards skipped by an open breaker
	Hedges         int64 `json:"hedges"`          // local races started against slow forwards
	HedgeLocalWins int64 `json:"hedge_local_wins"`
	Retry429Waits  int64 `json:"retry_after_waits"` // Retry-After waits honoured on peer 429s
	PeerCacheHits  int64 `json:"peer_cache_hits"`   // cache hits peers reported for our forwards

	ForwardedServed int64 `json:"forwarded_served"` // forwarded requests we served for peers
	LoopRejects     int64 `json:"loop_rejects"`     // forwards rejected by the hop guard

	HotSetEntries  int64 `json:"hotset_entries"`  // entries staged for a drain handoff
	HandoffEntries int64 `json:"handoff_entries"` // entries pushed to new owners at drain
	HandoffPeers   int64 `json:"handoff_peers"`   // peers that received a handoff
	WarmAccepted   int64 `json:"warm_accepted"`   // handoff entries accepted from draining peers

	Peers []PeerSnapshot `json:"peers"`
}

// PeerSnapshot is the exported view of one peer's health and counters.
type PeerSnapshot struct {
	ID             string       `json:"id"`
	URL            string       `json:"url"`
	State          State        `json:"state"`
	ConsecFailures int          `json:"consec_failures"`
	Quarantines    int64        `json:"quarantines"`
	Readmissions   int64        `json:"readmissions"`
	Forwards       int64        `json:"forwards"`
	ForwardErrors  int64        `json:"forward_errors"`
	PeerCacheHits  int64        `json:"peer_cache_hits"`
	Breaker        BreakerState `json:"breaker"`
	BreakerTrips   int64        `json:"breaker_trips"`
	LastError      string       `json:"last_error,omitempty"`
}

// Stats snapshots the cluster. The membership fields are taken under the
// membership lock, so ring members and peer states are mutually consistent.
// Nil-safe: a nil cluster returns a zero Stats.
func (c *Cluster) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		NodeID:          c.self,
		Draining:        c.draining.Load(),
		Batches:         c.batches.Load(),
		LocalPairs:      c.localPairs.Load(),
		ForwardedPairs:  c.forwardedPairs.Load(),
		FallbackPairs:   c.fallbackPairs.Load(),
		ShortCircuits:   c.shortCircuits.Load(),
		Hedges:          c.hedges.Load(),
		HedgeLocalWins:  c.hedgeLocalWins.Load(),
		Retry429Waits:   c.retry429Waits.Load(),
		ForwardedServed: c.forwardedServed.Load(),
		LoopRejects:     c.loopRejects.Load(),
		HotSetEntries:   int64(c.hot.len()),
		HandoffEntries:  c.handoffEntries.Load(),
		HandoffPeers:    c.handoffPeers.Load(),
		WarmAccepted:    c.warmAccepted.Load(),
	}
	c.mu.Lock()
	st.RingMembers = append([]string(nil), c.currentRing().members()...)
	st.RingVersion = c.ringVersion
	st.Rehomes = c.rehomes
	for _, p := range c.order {
		br := p.br.Stats()
		snap := PeerSnapshot{
			ID:             p.id,
			URL:            p.url,
			State:          p.health.State,
			ConsecFailures: p.health.Consec,
			Quarantines:    p.health.Quarantines,
			Readmissions:   p.health.Readmissions,
			Forwards:       p.forwards.Load(),
			ForwardErrors:  p.forwardErrs.Load(),
			PeerCacheHits:  p.peerCacheHits.Load(),
			Breaker:        br.State,
			BreakerTrips:   br.Trips,
			LastError:      p.lastErr,
		}
		st.PeerCacheHits += snap.PeerCacheHits
		st.Peers = append(st.Peers, snap)
	}
	c.mu.Unlock()
	return st
}
