// Package bench collects machine-readable pipeline benchmark results. It
// runs the bitwise pipeline over a workload's n-sweep and emits one JSON
// document (schema repro/bench-pipeline/v1) with the workload shape, the
// per-stage simulated times of the paper's five-stage breakdown (Table IV),
// the wall-clock cost of the simulation itself, and GCUPS per run — the
// paper's headline metric. swabench -bench-out writes the file; CI's
// bench-smoke job validates it and archives it as an artifact so regressions
// show up as a diffable JSON change.
//
// # Simulated time vs wall time
//
// Every run carries two very different clocks, and they must not be
// compared to each other:
//
//   - sim_total_ns (and the stages_sim breakdown) is what the cost model says
//     the paper's GPU would take: kernel instruction counts and PCIe byte
//     counts priced by perfmodel for the modelled device. It is
//     host-independent and typically hundreds of microseconds. gcups is
//     derived from this clock, so it is comparable to the paper's Table IV.
//   - wall_ns is how long this host needed to execute the simulation of that
//     run — Go code emulating every thread of every block — and is typically
//     three orders of magnitude larger (hundreds of milliseconds). It depends
//     on the host CPU, GOMAXPROCS and load; wall_gcups is the honest
//     throughput of the simulator process itself, and is correspondingly
//     small.
//
// A change that makes the simulator faster moves wall_ns/wall_gcups and
// leaves sim_total_ns/gcups untouched; a change to the modelled kernels or
// cost model moves the simulated numbers. CI's bench-smoke job validates
// both are present and sane but never cross-compares them.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/swa"
	"repro/internal/workload"
)

// Schema identifies the JSON layout. Bump the suffix on breaking changes.
const Schema = "repro/bench-pipeline/v1"

// Host records where the numbers were measured. Simulated stage times are
// host-independent; wall times are not.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Hostname  string `json:"hostname,omitempty"`
}

// StageNS is the five-stage simulated-time breakdown in nanoseconds,
// mirroring pipeline.StageTimes.
type StageNS struct {
	H2G int64 `json:"h2g_ns"`
	W2B int64 `json:"w2b_ns"`
	SWA int64 `json:"swa_ns"`
	B2W int64 `json:"b2w_ns"`
	G2H int64 `json:"g2h_ns"`
}

// Run is one (pairs, m, n) shape of the sweep. See the package comment for
// the sim-clock vs wall-clock distinction its fields straddle.
type Run struct {
	Pairs int `json:"pairs"`
	M     int `json:"m"`
	N     int `json:"n"`
	Lanes int `json:"lanes"`
	SBits int `json:"s_bits"`

	// Stages and SimTotalNS are modelled-GPU time (host-independent).
	Stages     StageNS `json:"stages_sim"`
	SimTotalNS int64   `json:"sim_total_ns"`
	// WallNS is the host's cost of executing the simulation of this run —
	// expect it to be ~1000× SimTotalNS; that gap is the price of emulating
	// every thread in Go, not a performance bug.
	WallNS int64 `json:"wall_ns"`
	// GCUPS is cell updates per second on the simulated clock (comparable
	// to the paper); WallGCUPS is the same cell count over WallNS — the
	// honest throughput of the simulator process on this host.
	GCUPS     float64 `json:"gcups"`
	WallGCUPS float64 `json:"wall_gcups"`
}

// File is the full document.
type File struct {
	Schema    string `json:"schema"`
	Workload  string `json:"workload"`
	CreatedAt string `json:"created_at,omitempty"` // RFC 3339 UTC
	Host      Host   `json:"host"`
	Runs      []Run  `json:"runs"`
	// Cluster is present when the sweep was additionally run through a
	// multi-node peer cluster (swabench -peers N).
	Cluster *ClusterSection `json:"cluster,omitempty"`
	// Backends is present when the sweep was additionally served by the
	// standalone execution backends (swabench -backends). All of its
	// numbers live on the host (wall) clock.
	Backends []BackendSection `json:"backends,omitempty"`
	// Search is present when the corpus-search selectivity sweep was
	// additionally run (swabench -search). All of its numbers live on
	// the host (wall) clock.
	Search *SearchSection `json:"search,omitempty"`
	// SpeedupStripedVsBitwiseSim is the striped backend's aggregate wall
	// GCUPS over bitwise-sim's, when both sections are present. This is the
	// headline wall-clock win of the native engine over simulating the
	// paper's GPU in Go — it deliberately compares wall clock to wall
	// clock, never wall to simulated.
	SpeedupStripedVsBitwiseSim float64 `json:"speedup_striped_vs_bitwise_sim,omitempty"`
}

// BackendRun is one (pairs, m, n) shape served by one execution backend,
// timed on the host clock.
type BackendRun struct {
	Pairs  int   `json:"pairs"`
	M      int   `json:"m"`
	N      int   `json:"n"`
	WallNS int64 `json:"wall_ns"`
	// WallGCUPS is the run's cell count over WallNS.
	WallGCUPS float64 `json:"wall_gcups"`
	// Exact records that every score of this run was re-checked
	// byte-identical against the scalar swa.Score reference (checked
	// outside the timed region). Validate fails when it is false: a
	// backend that wins the benchmark with wrong scores is not a result.
	Exact bool `json:"exact_vs_reference"`
}

// BackendSection is one backend's sweep.
type BackendSection struct {
	Name string       `json:"name"`
	Runs []BackendRun `json:"runs"`
	// AggregateWallGCUPS is the whole sweep's cell count over its summed
	// wall time.
	AggregateWallGCUPS float64 `json:"aggregate_wall_gcups"`
}

// wallGCUPS prices a run's cell count against host elapsed time, clamping
// the elapsed time to 1ns: a ~0 measurement (coarse clock granularity on a
// trivially small run) yields a large-but-finite number instead of the
// +Inf that a bare division produces — and that +Inf would otherwise
// satisfy a naive "> 0" sanity check and poison downstream aggregates.
func wallGCUPS(pairs, m, n int, wall time.Duration) float64 {
	if wall < time.Nanosecond {
		wall = time.Nanosecond
	}
	return perfmodel.GCUPS(pairs, m, n, wall)
}

// finitePositive reports whether v is a real, positive measurement.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// Collect runs the bitwise pipeline once per n in the spec's sweep and
// returns the filled document. cfg is passed through to the pipeline (zero
// value is fine); ctx cancellation aborts between kernel blocks.
func Collect(ctx context.Context, spec workload.Spec, cfg pipeline.Config) (*File, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hostname, _ := os.Hostname()
	f := &File{
		Schema:    Schema,
		Workload:  spec.Name,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			Hostname:  hostname,
		},
	}
	for _, n := range spec.NList {
		pairs := spec.Generate(n)
		begin := time.Now()
		res, err := pipeline.RunBitwise[uint32](ctx, pairs, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: n = %d: %w", n, err)
		}
		wall := time.Since(begin)
		f.Runs = append(f.Runs, Run{
			Pairs: res.Pairs, M: res.M, N: res.N,
			Lanes: res.Lanes, SBits: res.SBits,
			Stages: StageNS{
				H2G: res.Times.H2G.Nanoseconds(),
				W2B: res.Times.W2B.Nanoseconds(),
				SWA: res.Times.SWA.Nanoseconds(),
				B2W: res.Times.B2W.Nanoseconds(),
				G2H: res.Times.G2H.Nanoseconds(),
			},
			SimTotalNS: res.Times.Total().Nanoseconds(),
			WallNS:     wall.Nanoseconds(),
			GCUPS:      res.GCUPS(),
			WallGCUPS:  wallGCUPS(res.Pairs, res.M, res.N, wall),
		})
	}
	return f, nil
}

// CollectBackends serves the spec's n-sweep through each named execution
// backend (constructed standalone via alignsvc.NewBackend) and attaches one
// wall-clock BackendSection per name, in the given order. Every batch's
// scores are re-checked against the scalar swa.Score reference outside the
// timed region, so the sections double as the cross-backend exactness
// oracle. When both "striped" and "bitwise-sim" are among the names, the
// headline SpeedupStripedVsBitwiseSim ratio is filled in.
func (f *File) CollectBackends(ctx context.Context, spec workload.Spec, cfg pipeline.Config, lanes int, names []string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("bench: no backend names")
	}
	sc := cfg.Scoring
	if sc == (swa.Scoring{}) {
		sc = swa.PaperScoring
	}
	for _, name := range names {
		b, err := alignsvc.NewBackend(name, cfg, lanes)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		sec := BackendSection{Name: name}
		var cells int64
		var wallSum time.Duration
		for _, n := range spec.NList {
			pairs := spec.Generate(n)
			begin := time.Now()
			scores, _, err := b.AlignBatch(ctx, pairs, alignsvc.BatchOpts{})
			wall := time.Since(begin)
			if err != nil {
				return fmt.Errorf("bench: backend %s n = %d: %w", name, n, err)
			}
			exact := len(scores) == len(pairs)
			for i, p := range pairs {
				if !exact || scores[i] != swa.Score(p.X, p.Y, sc) {
					exact = false
					break
				}
			}
			sec.Runs = append(sec.Runs, BackendRun{
				Pairs: len(pairs), M: spec.M, N: n,
				WallNS:    wall.Nanoseconds(),
				WallGCUPS: wallGCUPS(len(pairs), spec.M, n, wall),
				Exact:     exact,
			})
			cells += int64(len(pairs)) * int64(spec.M) * int64(n)
			wallSum += wall
		}
		if wallSum < time.Nanosecond {
			wallSum = time.Nanosecond
		}
		sec.AggregateWallGCUPS = float64(cells) / 1e9 / wallSum.Seconds()
		f.Backends = append(f.Backends, sec)
	}
	if st, bw := f.backendSection("striped"), f.backendSection("bitwise-sim"); st != nil && bw != nil &&
		finitePositive(st.AggregateWallGCUPS) && finitePositive(bw.AggregateWallGCUPS) {
		f.SpeedupStripedVsBitwiseSim = st.AggregateWallGCUPS / bw.AggregateWallGCUPS
	}
	return nil
}

// backendSection returns the named section, or nil.
func (f *File) backendSection(name string) *BackendSection {
	for i := range f.Backends {
		if f.Backends[i].Name == name {
			return &f.Backends[i]
		}
	}
	return nil
}

// Validate checks the invariants CI's bench-smoke job relies on: the right
// schema, at least two distinct (m, n) shapes, and physically sensible
// numbers (positive GCUPS, nonzero simulated time, SWA dominated breakdown
// is NOT required — only presence).
func (f *File) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", f.Schema, Schema)
	}
	if len(f.Runs) < 2 {
		return fmt.Errorf("bench: %d run(s), want at least 2 shapes", len(f.Runs))
	}
	shapes := make(map[[2]int]bool)
	for i, r := range f.Runs {
		if r.Pairs <= 0 || r.M <= 0 || r.N < r.M {
			return fmt.Errorf("bench: run %d has degenerate shape (%d pairs, m=%d, n=%d)", i, r.Pairs, r.M, r.N)
		}
		if !finitePositive(r.GCUPS) {
			return fmt.Errorf("bench: run %d (m=%d, n=%d) has GCUPS %v, want finite > 0", i, r.M, r.N, r.GCUPS)
		}
		if r.SimTotalNS <= 0 {
			return fmt.Errorf("bench: run %d (m=%d, n=%d) has zero simulated time", i, r.M, r.N)
		}
		// Historically this read "WallGCUPS <= 0", which a +Inf (from a
		// ~0 wall measurement divided through unclamped) silently passed;
		// reject the whole non-finite family explicitly.
		if r.WallNS > 0 && !finitePositive(r.WallGCUPS) {
			return fmt.Errorf("bench: run %d (m=%d, n=%d) has wall time but WallGCUPS %v, want finite > 0", i, r.M, r.N, r.WallGCUPS)
		}
		sum := r.Stages.H2G + r.Stages.W2B + r.Stages.SWA + r.Stages.B2W + r.Stages.G2H
		if sum != r.SimTotalNS {
			return fmt.Errorf("bench: run %d stage sum %d ≠ total %d", i, sum, r.SimTotalNS)
		}
		shapes[[2]int{r.M, r.N}] = true
	}
	if len(shapes) < 2 {
		return fmt.Errorf("bench: all %d runs share one (m, n) shape", len(f.Runs))
	}
	if f.Cluster != nil {
		if err := f.Cluster.validate(); err != nil {
			return err
		}
	}
	if f.Search != nil {
		if err := f.Search.validate(); err != nil {
			return err
		}
	}
	seen := make(map[string]bool)
	for _, sec := range f.Backends {
		if sec.Name == "" || seen[sec.Name] {
			return fmt.Errorf("bench: backend section name %q empty or duplicated", sec.Name)
		}
		seen[sec.Name] = true
		if len(sec.Runs) == 0 {
			return fmt.Errorf("bench: backend %s has no runs", sec.Name)
		}
		for i, r := range sec.Runs {
			if r.Pairs <= 0 || r.M <= 0 || r.N < r.M {
				return fmt.Errorf("bench: backend %s run %d has degenerate shape (%d pairs, m=%d, n=%d)",
					sec.Name, i, r.Pairs, r.M, r.N)
			}
			if r.WallNS <= 0 || !finitePositive(r.WallGCUPS) {
				return fmt.Errorf("bench: backend %s run %d has wall %dns, WallGCUPS %v, want finite > 0",
					sec.Name, i, r.WallNS, r.WallGCUPS)
			}
			if !r.Exact {
				return fmt.Errorf("bench: backend %s run %d (m=%d, n=%d) diverged from the scalar reference",
					sec.Name, i, r.M, r.N)
			}
		}
		if !finitePositive(sec.AggregateWallGCUPS) {
			return fmt.Errorf("bench: backend %s aggregate wall GCUPS %v, want finite > 0",
				sec.Name, sec.AggregateWallGCUPS)
		}
	}
	if f.SpeedupStripedVsBitwiseSim != 0 && !finitePositive(f.SpeedupStripedVsBitwiseSim) {
		return fmt.Errorf("bench: striped-vs-bitwise speedup %v, want finite > 0", f.SpeedupStripedVsBitwiseSim)
	}
	return nil
}

// WriteFile writes the document as indented JSON (trailing newline, so the
// artifact diffs cleanly).
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a document written by WriteFile. It does not Validate.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}
