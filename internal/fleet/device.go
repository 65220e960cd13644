package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/cudasim"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// State is a device's position in the shared health machine (see
// internal/health): healthy → suspect → quarantined → probing → readmitted.
// A device is readmitted only by its self-test, never by a shard that
// happened to succeed while it was quarantined.
type State = health.State

// The device health states. A breaker opening on a GPU tier also marks GPU
// members suspect; quarantined devices' queued shards are drained by
// stealing.
const (
	Healthy     = health.Healthy
	Suspect     = health.Suspect
	Quarantined = health.Quarantined
	Probing     = health.Probing
)

// DeviceConfig describes one fleet member.
type DeviceConfig struct {
	// Name identifies the device in stats, metrics and kill/revive calls.
	Name string
	// Spec is the simulated hardware for GPU members (ignored for CPU).
	Spec perfmodel.DeviceSpec
	// GlobalBytes is the member's declared device-memory capacity.
	GlobalBytes int64
	// Flaky is a per-device baseline fault profile layered under whatever
	// faults the caller's exec function injects — a seeded "bad card".
	Flaky cudasim.FaultConfig
	// CPU marks the host-fallback member: it takes work only when no GPU
	// member is eligible or a shard is being re-dispatched after failure.
	CPU bool
}

// Device is one fault domain of the fleet: an identity, a kill switch, a
// health state and a bounded work queue. The immutable identity fields are
// safe to read anywhere; everything mutable is guarded by the scheduler's
// lock.
type Device struct {
	id          int
	name        string
	cpu         bool
	spec        perfmodel.DeviceSpec
	globalBytes int64
	flaky       cudasim.FaultConfig
	ks          *cudasim.KillSwitch

	// All fields below are guarded by the owning Scheduler's mu.
	health       health.Member
	queue        []*task
	running      *task
	runningSince time.Time

	completed, failed int64
	steals            int64 // shards this device stole from another queue
	probes            int64
	timeouts          int64
	pairsDone         int64
	busy              time.Duration
	lastErr           string

	// Metric handles (created once at New; nil when no registry).
	mState, mDepth        *obs.Gauge
	mSteals, mQuar, mRead *obs.Counter
}

// Name returns the device's fleet-unique name.
func (d *Device) Name() string { return d.name }

// CPU reports whether this is the host-fallback member.
func (d *Device) CPU() bool { return d.cpu }

// Spec returns the simulated hardware spec (zero for the CPU member).
func (d *Device) Spec() perfmodel.DeviceSpec { return d.spec }

// GlobalBytes returns the member's declared device-memory capacity.
func (d *Device) GlobalBytes() int64 { return d.globalBytes }

// Killed reports whether the device's kill switch is currently flipped.
func (d *Device) Killed() bool { return d.ks.Killed() }

// NewInjector builds the fault injector an execution on this device must
// use: the device's baseline flaky profile combined with the caller's extra
// fault config (rates compose as independent failure sources), layered on
// the device's kill switch so a KillDevice aborts the execution mid-launch.
// The seed should be unique per execution so re-dispatched shards do not
// replay the identical fault stream.
func (d *Device) NewInjector(extra cudasim.FaultConfig, seed uint64) *cudasim.FaultInjector {
	cfg := cudasim.FaultConfig{
		Seed:    seed ^ d.flaky.Seed ^ (uint64(d.id+1) * 0x9e3779b97f4a7c15),
		HtoD:    combineRates(d.flaky.HtoD, extra.HtoD),
		DtoH:    combineRates(d.flaky.DtoH, extra.DtoH),
		Alloc:   combineRates(d.flaky.Alloc, extra.Alloc),
		Launch:  combineRates(d.flaky.Launch, extra.Launch),
		BitFlip: combineRates(d.flaky.BitFlip, extra.BitFlip),
	}
	return cudasim.NewFaultInjectorKilled(cfg, d.ks)
}

// combineRates merges two independent per-operation failure probabilities.
func combineRates(a, b float64) float64 {
	return 1 - (1-a)*(1-b)
}

// noteDepth mirrors the queue depth into its gauge (caller holds the lock).
func (d *Device) noteDepth() {
	if d.mDepth != nil {
		d.mDepth.Set(float64(len(d.queue)))
	}
}

// takesWork reports whether the device may pick up shards (caller holds the
// scheduler lock).
func (d *Device) takesWork() bool { return d.health.InRotation() }

// selfTest is the out-of-band probe a quarantined device must pass to be
// readmitted: a fresh tiny simulated device with the member's flaky profile
// and kill switch attached runs an alloc → upload → kernel → download
// round-trip and the readback must be byte-exact. For the CPU member the
// probe is just the kill switch. Runs without the scheduler lock held.
func (d *Device) selfTest(seed uint64) error {
	if d.cpu {
		if d.ks.Killed() {
			return &cudasim.KilledError{Op: cudasim.FaultLaunch}
		}
		return nil
	}
	dev := cudasim.NewDevice(d.spec, 1<<20)
	dev.InjectFaults(d.NewInjector(cudasim.FaultConfig{}, seed))
	buf, err := dev.Alloc(256)
	if err != nil {
		return fmt.Errorf("fleet: probe alloc: %w", err)
	}
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	if err := dev.MemcpyHtoD(buf, src); err != nil {
		return fmt.Errorf("fleet: probe upload: %w", err)
	}
	k := cudasim.KernelFunc(func(b *cudasim.Block) {
		b.ForEachThread(func(t *cudasim.Thread) {
			t.Ops(1)
			_ = t.GlobalLoad8(buf, int64(t.Tid))
		})
	})
	if _, err := dev.Launch(1, 32, k); err != nil {
		return fmt.Errorf("fleet: probe launch: %w", err)
	}
	got := make([]byte, 256)
	if err := dev.MemcpyDtoH(got, buf); err != nil {
		return fmt.Errorf("fleet: probe download: %w", err)
	}
	if !bytes.Equal(got, src) {
		return errors.New("fleet: probe readback mismatch")
	}
	return nil
}
