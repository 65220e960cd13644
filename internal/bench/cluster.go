package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/swa"
	"repro/internal/workload"
)

// ClusterSection is the optional multi-node section: the same n-sweep pushed
// through N swaserver-shaped nodes joined by the consistent-hash peer layer
// (swabench -peers N). The sweep runs four times: cold, warm (the repeat hits
// the peers' caches, giving the peer hit ratio), immediately after one node's
// HTTP surface is killed (forwards degrade to local fallbacks), and after the
// survivors have quarantined the victim and re-homed its arc. All scores are
// verified exact against the CPU reference, so a routing or merge bug fails
// the collection rather than skewing the numbers.
type ClusterSection struct {
	Nodes   int   `json:"nodes"`
	Batches int64 `json:"batches"` // batches routed through the entry node
	Pairs   int64 `json:"pairs"`   // pairs across all sweeps

	LocalPairs     int64   `json:"local_pairs"`     // owned by the entry node
	ForwardedPairs int64   `json:"forwarded_pairs"` // answered by a peer
	FallbackPairs  int64   `json:"fallback_pairs"`  // served locally after a failed forward
	PeerCacheHits  int64   `json:"peer_cache_hits"` // cache hits peers reported for forwards
	PeerHitRatio   float64 `json:"peer_hit_ratio"`  // PeerCacheHits / ForwardedPairs
	Rehomes        int64   `json:"rehomes"`         // ring rebuilds seen by the entry node
	RingMembers    int     `json:"ring_members"`    // members left after the kill
	WallNS         int64   `json:"wall_ns"`         // host cost of all four sweeps
	KilledNode     string  `json:"killed_node"`     // the member whose HTTP surface was killed
	ShortCircuits  int64   `json:"short_circuits"`  // forwards skipped by an open breaker
	WarmForwarded  int64   `json:"warm_forwarded"`  // forwarded pairs during the warm pass only
	WarmPeerHits   int64   `json:"warm_peer_hits"`  // peer cache hits during the warm pass only
	WarmHitRatio   float64 `json:"warm_hit_ratio"`  // WarmPeerHits / WarmForwarded
}

// benchNode is one in-process cluster member for the bench sweep.
type benchNode struct {
	id  string
	ln  net.Listener
	hs  *http.Server
	svc *alignsvc.Service
	cl  *cluster.Cluster
}

func (n *benchNode) close() {
	if n.hs != nil {
		n.hs.Close()
	}
	if n.cl != nil {
		n.cl.Close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
}

// CollectCluster runs the spec's n-sweep through a cluster of n nodes and
// attaches the routing/caching/re-homing section to f. The entry node is
// nodes[0]; the last node is killed (listener torn down, connections reset)
// between the warm and the degraded sweeps.
func (f *File) CollectCluster(ctx context.Context, spec workload.Spec, n int) error {
	if n < 2 {
		return fmt.Errorf("bench: cluster size %d, want at least 2 nodes", n)
	}
	nodes := make([]*benchNode, n)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.close()
			}
		}
	}()
	// Listeners first, so every node can be configured with the full peer
	// set before any of them serves traffic.
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("bench: cluster listener: %w", err)
		}
		nodes[i] = &benchNode{id: fmt.Sprintf("bench%d", i), ln: ln}
	}
	for i, nd := range nodes {
		var peers []cluster.Peer
		for j, p := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{ID: p.id, URL: "http://" + p.ln.Addr().String()})
			}
		}
		reg := obs.NewRegistry()
		nd.svc = alignsvc.New(alignsvc.Config{
			Seed:    uint64(1000 + i),
			Cache:   aligncache.New(aligncache.Config{MaxBytes: 64 << 20, Metrics: reg}),
			Metrics: reg,
		})
		cl, err := cluster.New(cluster.Config{
			NodeID:        nd.id,
			Peers:         peers,
			Local:         nd.svc,
			Scoring:       nd.svc.Scoring(),
			Lanes:         nd.svc.Lanes(),
			ProbeInterval: 100 * time.Millisecond,
			Metrics:       reg,
		})
		if err != nil {
			return fmt.Errorf("bench: cluster node %s: %w", nd.id, err)
		}
		nd.cl = cl
		srv, err := server.New(server.Config{Service: nd.svc, Cluster: cl, Metrics: reg})
		if err != nil {
			return fmt.Errorf("bench: cluster node %s: %w", nd.id, err)
		}
		nd.hs = &http.Server{Handler: srv.Handler()}
		go nd.hs.Serve(nd.ln)
	}
	entry, victim := nodes[0], nodes[n-1]

	var batches, pairsDone int64
	sweep := func(verify bool) error {
		for _, nn := range spec.NList {
			pairs := spec.Generate(nn)
			res, err := entry.cl.Align(ctx, pairs)
			if err != nil {
				return fmt.Errorf("bench: cluster n = %d: %w", nn, err)
			}
			if len(res.Scores) != len(pairs) {
				return fmt.Errorf("bench: cluster n = %d: %d scores for %d pairs", nn, len(res.Scores), len(pairs))
			}
			if verify {
				// Spot-check exactness against the CPU reference; a stride
				// bounds the CPU cost on big presets while still catching
				// any merge that scrambles batch order.
				step := max(1, len(pairs)/64)
				for i := 0; i < len(pairs); i += step {
					want := swa.Score(pairs[i].X, pairs[i].Y, swa.PaperScoring)
					if res.Scores[i] != want {
						return fmt.Errorf("bench: cluster n = %d: score[%d] = %d, want %d",
							nn, i, res.Scores[i], want)
					}
				}
			}
			batches++
			pairsDone += int64(len(pairs))
		}
		return nil
	}

	begin := time.Now()
	// Cold, then warm: the repeat forwards the same keys to the same owners,
	// so the delta in peer-reported cache hits is the peer hit ratio.
	if err := sweep(true); err != nil {
		return err
	}
	cold := entry.cl.Stats()
	if err := sweep(false); err != nil {
		return err
	}
	warm := entry.cl.Stats()

	// Kill the last node's HTTP surface: in-ring forwards now fail and must
	// degrade to local execution, still exact.
	victim.hs.Close()
	victim.ln.Close()
	if err := sweep(true); err != nil {
		return err
	}

	// The entry node's prober quarantines the victim and re-homes its arc.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := entry.cl.Stats()
		if st.Rehomes > warm.Rehomes {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: cluster never re-homed after killing %s", victim.id)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := sweep(true); err != nil {
		return err
	}
	wall := time.Since(begin)

	st := entry.cl.Stats()
	out := &ClusterSection{
		Nodes:          n,
		Batches:        batches,
		Pairs:          pairsDone,
		LocalPairs:     st.LocalPairs,
		ForwardedPairs: st.ForwardedPairs,
		FallbackPairs:  st.FallbackPairs,
		PeerCacheHits:  st.PeerCacheHits,
		Rehomes:        st.Rehomes,
		RingMembers:    len(st.RingMembers),
		WallNS:         wall.Nanoseconds(),
		KilledNode:     victim.id,
		ShortCircuits:  st.ShortCircuits,
		WarmForwarded:  warm.ForwardedPairs - cold.ForwardedPairs,
		WarmPeerHits:   warm.PeerCacheHits - cold.PeerCacheHits,
	}
	if out.ForwardedPairs > 0 {
		out.PeerHitRatio = float64(out.PeerCacheHits) / float64(out.ForwardedPairs)
	}
	if out.WarmForwarded > 0 {
		out.WarmHitRatio = float64(out.WarmPeerHits) / float64(out.WarmForwarded)
	}
	f.Cluster = out
	return nil
}

// validateCluster checks the cluster section's invariants for Validate.
func (c *ClusterSection) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("bench: cluster section has %d node(s), want a cluster", c.Nodes)
	}
	if c.Batches <= 0 || c.Pairs <= 0 || c.WallNS <= 0 {
		return fmt.Errorf("bench: cluster section is empty: %+v", c)
	}
	if c.LocalPairs <= 0 || c.ForwardedPairs <= 0 {
		return fmt.Errorf("bench: cluster routing never engaged (local %d, forwarded %d)",
			c.LocalPairs, c.ForwardedPairs)
	}
	if c.PeerHitRatio < 0 || c.PeerHitRatio > 1 {
		return fmt.Errorf("bench: peer hit ratio %v out of range", c.PeerHitRatio)
	}
	if c.WarmHitRatio <= 0 || c.WarmHitRatio > 1 {
		return fmt.Errorf("bench: warm-pass peer hit ratio %v, want (0, 1] — the repeat sweep must hit peer caches", c.WarmHitRatio)
	}
	if c.Rehomes <= 0 {
		return fmt.Errorf("bench: no re-home recorded despite the node kill")
	}
	if c.KilledNode == "" || c.RingMembers >= c.Nodes {
		return fmt.Errorf("bench: ring still has %d/%d members after killing %q",
			c.RingMembers, c.Nodes, c.KilledNode)
	}
	return nil
}
