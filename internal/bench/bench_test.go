package bench

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

func collectUnit(t *testing.T) *File {
	t.Helper()
	f, err := Collect(context.Background(), workload.Unit, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCollectValidates(t *testing.T) {
	f := collectUnit(t)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workload.Unit.NList) {
		t.Fatalf("%d runs, want %d", len(f.Runs), len(workload.Unit.NList))
	}
	for _, r := range f.Runs {
		if r.Lanes != 32 {
			t.Errorf("n=%d: lanes = %d, want 32", r.N, r.Lanes)
		}
		if r.WallNS <= 0 {
			t.Errorf("n=%d: wall time not recorded", r.N)
		}
		if r.WallGCUPS <= 0 {
			t.Errorf("n=%d: wall GCUPS not recorded", r.N)
		}
		if r.WallGCUPS >= r.GCUPS {
			t.Errorf("n=%d: wall GCUPS %v ≥ simulated GCUPS %v — the simulator cannot outrun the modelled GPU",
				r.N, r.WallGCUPS, r.GCUPS)
		}
		if r.Stages.SWA <= 0 {
			t.Errorf("n=%d: SWA stage time is zero", r.N)
		}
	}
	if f.Host.GoVersion == "" || f.Host.NumCPU <= 0 {
		t.Errorf("host info incomplete: %+v", f.Host)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := collectUnit(t)
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Runs) != len(f.Runs) || g.Workload != f.Workload {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *File { return collectUnit(t) }
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"wrong schema", func(f *File) { f.Schema = "repro/bench-pipeline/v0" }},
		{"single run", func(f *File) { f.Runs = f.Runs[:1] }},
		{"zero gcups", func(f *File) { f.Runs[0].GCUPS = 0 }},
		{"zero sim time", func(f *File) { f.Runs[1].SimTotalNS = 0 }},
		{"wall time without wall gcups", func(f *File) { f.Runs[0].WallGCUPS = 0 }},
		{"stage sum mismatch", func(f *File) { f.Runs[0].Stages.SWA++ }},
		{"one shape", func(f *File) {
			f.Runs[1] = f.Runs[0]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base()
			tc.mutate(f)
			if err := f.Validate(); err == nil {
				t.Error("Validate accepted a broken file")
			}
		})
	}
}

func TestCollectHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, workload.Unit, pipeline.Config{}); err == nil {
		t.Error("Collect ignored a canceled context")
	}
}

func TestCollectClusterSectionValidates(t *testing.T) {
	f := collectUnit(t)
	if err := f.CollectCluster(context.Background(), workload.Unit, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	c := f.Cluster
	if c == nil || c.Nodes != 3 {
		t.Fatalf("cluster section = %+v, want 3 nodes", c)
	}
	// Four sweeps of the unit preset went through the entry node.
	want := int64(4 * len(workload.Unit.NList) * workload.Unit.Pairs)
	if c.Pairs != want {
		t.Fatalf("cluster swept %d pairs, want %d", c.Pairs, want)
	}
	if c.ForwardedPairs == 0 || c.WarmHitRatio <= 0 {
		t.Fatalf("cluster routing/caching never engaged: %+v", c)
	}
	if c.Rehomes == 0 || c.RingMembers != 2 || c.KilledNode == "" {
		t.Fatalf("node kill not reflected: %+v", c)
	}

	// The section must survive the JSON round trip.
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Cluster == nil || back.Cluster.ForwardedPairs != c.ForwardedPairs {
		t.Fatalf("cluster section did not round-trip: %+v", back.Cluster)
	}
}

func TestValidateRejectsBadCluster(t *testing.T) {
	f := collectUnit(t)
	f.Cluster = &ClusterSection{Nodes: 1}
	if err := f.Validate(); err == nil {
		t.Fatal("one-node cluster section should fail validation")
	}
	f.Cluster = &ClusterSection{
		Nodes: 3, Batches: 8, Pairs: 256, WallNS: 1,
		LocalPairs: 100, ForwardedPairs: 156,
		WarmForwarded: 39, WarmPeerHits: 39, WarmHitRatio: 1,
		Rehomes: 0, KilledNode: "bench2", RingMembers: 2,
	}
	if err := f.Validate(); err == nil {
		t.Fatal("a cluster section with no re-home after a kill should fail validation")
	}
}
