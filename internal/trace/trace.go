// Package trace is the deterministic structured-event layer of the
// observability PR (ISSUE 4): a preallocated ring buffer of typed events plus
// monotonic counters, emitted from the simulator's decision points — epoch
// repartition decisions, the page-migration lifecycle, fault injection and
// repair, serving-layer admission, tenant attach/detach, and watchdog
// heartbeats.
//
// # Determinism contract
//
//   - Tracing is observation-only. No emit point reads the tracer back into
//     a simulation decision, so a run produces byte-identical results with
//     tracing enabled, disabled, or filtered (golden-tested in
//     internal/experiments).
//   - Event content is a pure function of the simulation: cycles, ids, and
//     counters — never wall-clock time, pointers, goroutine ids, or map
//     iteration order. Two identical runs render identical JSONL bytes, so
//     per-task traces of a parallel sweep concatenate to the serial output.
//   - One Tracer belongs to one simulation (one goroutine); sweeps give each
//     task its own instance, exactly like the one-GPU-per-task ownership
//     rule of internal/parallel.
//
// # Cost contract
//
// A nil *Tracer is the disabled tracer: every method nil-checks and returns
// immediately, so instrumented code pays one branch per emit point
// (benchmarked and alloc-asserted in trace_test.go — 0 allocs either way).
// An enabled tracer appends into a preallocated ring: steady state allocates
// nothing; when the ring wraps, the oldest events are overwritten and
// counted in Overwritten.
package trace

import "fmt"

// Severity ranks events for filtering.
type Severity uint8

const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
	SevError
)

// String returns the short lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevDebug:
		return "debug"
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("sev(%d)", uint8(s))
}

// ParseSeverity maps a lowercase severity name back to its value.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "debug":
		return SevDebug, nil
	case "info":
		return SevInfo, nil
	case "warn":
		return SevWarn, nil
	case "error":
		return SevError, nil
	}
	return 0, fmt.Errorf("trace: unknown severity %q (want debug, info, warn, or error)", s)
}

// Category groups event kinds for filtering.
type Category uint8

const (
	// CatEpoch covers epoch boundaries and repartition decisions.
	CatEpoch Category = iota
	// CatMigration covers the page-migration lifecycle.
	CatMigration
	// CatFault covers fault injection and degraded-mode repair.
	CatFault
	// CatLifecycle covers SM and tenant lifecycle (assign/drain/switch/
	// attach/detach) and channel-group reassignment.
	CatLifecycle
	// CatAdmission covers the serving layer's admit/reject/preempt path.
	CatAdmission
	// CatWatchdog covers watchdog heartbeat windows and stall reports.
	CatWatchdog
	// CatCluster covers cluster-level failover: whole-GPU crashes,
	// checkpoints, cross-GPU re-dispatch, and brownout transitions.
	CatCluster
	// CatPower covers the power-management subsystem: DVFS state
	// transitions, power-cap assignment, and cap clamping.
	CatPower
	// CatHealth covers gray-failure resilience: degradation windows, health
	// state transitions, and quarantine drains.
	CatHealth
	numCategories
)

// String returns the short lowercase category name.
func (c Category) String() string {
	switch c {
	case CatEpoch:
		return "epoch"
	case CatMigration:
		return "migration"
	case CatFault:
		return "fault"
	case CatLifecycle:
		return "lifecycle"
	case CatAdmission:
		return "admission"
	case CatWatchdog:
		return "watchdog"
	case CatCluster:
		return "cluster"
	case CatPower:
		return "power"
	case CatHealth:
		return "health"
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// ParseCategory maps a lowercase category name back to its value.
func ParseCategory(s string) (Category, error) {
	for c := Category(0); c < numCategories; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown category %q", s)
}

// Kind is a typed event. Every kind carries a fixed category and default
// severity (see kindInfo); the three payload args are kind-specific and
// documented per constant.
type Kind uint8

const (
	// KEpochEnd: one profiling epoch closed. unit=epoch index, a0=epoch
	// cycles, a1=instructions retired in the epoch (all apps).
	KEpochEnd Kind = iota
	// KEpochDecide: one app's repartition decision. app=slot, a0=demanded
	// SMs (policy target before fault clamping), a1=granted SMs, a2=granted
	// channel groups.
	KEpochDecide

	// KMigBegin: a page-migration job left the driver queue and began
	// copying. app=owner, a0=vpn, a1=attempt number (0 = first).
	KMigBegin
	// KMigNACK: one MIGRATION command was NACKed (fault injection).
	// app=owner, unit=global channel, a0=the line's NACK count so far.
	KMigNACK
	// KMigRetry: a NACK-exhausted job re-queued with driver backoff.
	// app=owner, a0=vpn, a1=next attempt number, a2=backoff cycles.
	KMigRetry
	// KMigCommit: a page migration committed (TLB shootdown follows).
	// app=owner, a0=vpn.
	KMigCommit
	// KMigFail: a copy attempt exhausted its per-line NACK retries.
	// app=owner, a0=vpn, a1=attempts used.
	KMigFail
	// KMigSpill: a page fell through to the slow-path driver remap.
	// app=owner, a0=vpn.
	KMigSpill
	// KMigEvacuate: a page on a dead channel group was queued for emergency
	// evacuation. app=owner, unit=dead group, a0=vpn.
	KMigEvacuate

	// KFaultInject: the injector delivered a discrete fault. unit=failed
	// unit id, a0=fault kind (fault.Kind numeric), a1=aux, a2=duration.
	KFaultInject
	// KFaultRepair: degraded-mode repair donated a resource to a starved
	// app. app=recipient, unit=donor app, a0=0 for an SM, 1 for a group.
	KFaultRepair
	// KNoCDrop: a NoC message was dropped (counter-only: the probabilistic
	// stream has no cycle context, so it never lands in the ring).
	KNoCDrop

	// KSMAssign: an SM bound an application. unit=SM, app=new owner.
	KSMAssign
	// KSMRelease: an SM returned to the idle pool. unit=SM, app=old owner.
	KSMRelease
	// KSMFail: an SM hard-failed. unit=SM, app=owner at failure (-1 idle).
	KSMFail
	// KSMDrain: an SM began draining toward a new owner. unit=SM, app=old
	// owner, a0=destination app.
	KSMDrain
	// KSMSwitch: an SM began a context switch toward a new owner. unit=SM,
	// app=old owner, a0=destination app, a1=ready-at cycle.
	KSMSwitch
	// KSetGroups: an app's channel groups were reassigned. app=slot,
	// a0=new group count, a1=1 if the set gained any group (arms
	// rebalancing), a2=1 if the app is detaching (repair-only reassignment).
	KSetGroups
	// KAttach: a tenant attached (online serving). app=slot, a0=SMs,
	// a1=groups, a2=seed tag (global job id).
	KAttach
	// KDetachBegin: two-phase detach started; execution stopped. app=slot.
	KDetachBegin
	// KDetachDone: detach quiesced; pages freed, slot vacant. app=slot.
	KDetachDone

	// KAdmit: the admission controller admitted a job. app=slot, unit=job
	// id, a0=QoS class, a1=granted SMs, a2=queue delay in cycles.
	KAdmit
	// KReject: an arrival was rejected (full class queue). unit=job id,
	// a0=QoS class.
	KReject
	// KPreempt: a best-effort tenant was evicted for blocked LC work.
	// app=slot, unit=job id, a0=the job's preemption count so far.
	KPreempt
	// KJobDone: a job served its instruction budget. app=slot, unit=job id,
	// a0=instructions served, a1=cycles in system (finish - arrival).
	KJobDone

	// KWatchdogWindow: one watchdog heartbeat window closed. a0=1 if the
	// progress fingerprint changed, a1=resident warps, a2=outstanding loads.
	KWatchdogWindow
	// KWatchdogStall: the watchdog detected no forward progress with work
	// outstanding. a0=outstanding loads, a1=in-flight+queued migrations,
	// a2=pending merged translations.
	KWatchdogStall

	// KFastForward: the fast-forward engine elided a quiescent span
	// (counter-only via Note, one count per skip: skips carry no per-event
	// payload and must never enter the ring, so traced output stays
	// byte-identical with fast-forward on or off).
	KFastForward

	// KGPUCrash: a whole GPU crashed and left the cluster. unit=GPU index,
	// a0=jobs recovered from its last checkpoint, a1=lost work in
	// alone-cycles (progress rolled back to the checkpoint), a2=surviving
	// GPU count.
	KGPUCrash
	// KCheckpoint: the cluster frontend captured one GPU's periodic
	// deterministic checkpoint. unit=GPU index, a0=jobs captured
	// (resident+queued), a1=total served instructions captured.
	KCheckpoint
	// KRedispatch: a crash-recovered job was re-dispatched to a surviving
	// GPU. unit=job id, a0=victim GPU, a1=target GPU, a2=retry attempt
	// (1 = first re-dispatch).
	KRedispatch
	// KBrownout: the overload controller changed tiers. a0=old tier,
	// a1=new tier, a2=queue-delay estimate in cycles.
	KBrownout
	// KShed: the frontend shed an arrival or a recovered job. unit=job id,
	// a0=QoS class, a1=shed reason (metrics.ShedReason numeric).
	KShed

	// KPower: the power-management subsystem changed state. unit=domain id
	// (SM frequency domain, power.ChannelDomainBase+channel for an HBM
	// channel, or GPU index for budget events), app=owning slot or -1,
	// a0=power.EventKind numeric (SM/HBM transition, cap assignment, clamp
	// enter/exit), a1=old value, a2=new value (P-state index or watts).
	KPower

	// KGrayFault: a gray-degradation window opened or closed on a GPU.
	// unit=GPU index, a0=1 applied / 0 cleared, a1=forced SM P-state floor,
	// a2=NoC drop probability in parts per million.
	KGrayFault
	// KHealth: the cluster health scorer moved a GPU between states.
	// unit=GPU index, a0=old state, a1=new state (clusterserve.HealthState
	// numeric), a2=the epoch's progress-vs-peer-median score x1000.
	KHealth
	// KQuarantineDrain: quarantine proactively drained a GPU's
	// latency-critical tenants. unit=GPU index, a0=jobs drained (resident +
	// queued), a1=live alone-cycles preserved beyond the last checkpoint.
	KQuarantineDrain

	numKinds
)

// NumKinds is the number of defined event kinds (export iteration).
const NumKinds = int(numKinds)

// kindInfo fixes each kind's name, category, and default severity.
var kindInfo = [numKinds]struct {
	name string
	cat  Category
	sev  Severity
}{
	KEpochEnd:        {"epoch-end", CatEpoch, SevInfo},
	KEpochDecide:     {"epoch-decide", CatEpoch, SevInfo},
	KMigBegin:        {"mig-begin", CatMigration, SevDebug},
	KMigNACK:         {"mig-nack", CatMigration, SevWarn},
	KMigRetry:        {"mig-retry", CatMigration, SevWarn},
	KMigCommit:       {"mig-commit", CatMigration, SevDebug},
	KMigFail:         {"mig-fail", CatMigration, SevWarn},
	KMigSpill:        {"mig-spill", CatMigration, SevWarn},
	KMigEvacuate:     {"mig-evacuate", CatMigration, SevWarn},
	KFaultInject:     {"fault-inject", CatFault, SevWarn},
	KFaultRepair:     {"fault-repair", CatFault, SevInfo},
	KNoCDrop:         {"noc-drop", CatFault, SevDebug},
	KSMAssign:        {"sm-assign", CatLifecycle, SevDebug},
	KSMRelease:       {"sm-release", CatLifecycle, SevDebug},
	KSMFail:          {"sm-fail", CatLifecycle, SevWarn},
	KSMDrain:         {"sm-drain", CatLifecycle, SevDebug},
	KSMSwitch:        {"sm-switch", CatLifecycle, SevDebug},
	KSetGroups:       {"set-groups", CatLifecycle, SevInfo},
	KAttach:          {"tenant-attach", CatLifecycle, SevInfo},
	KDetachBegin:     {"tenant-detach-begin", CatLifecycle, SevInfo},
	KDetachDone:      {"tenant-detach-done", CatLifecycle, SevInfo},
	KAdmit:           {"job-admit", CatAdmission, SevInfo},
	KReject:          {"job-reject", CatAdmission, SevWarn},
	KPreempt:         {"job-preempt", CatAdmission, SevWarn},
	KJobDone:         {"job-done", CatAdmission, SevInfo},
	KWatchdogWindow:  {"watchdog-window", CatWatchdog, SevDebug},
	KWatchdogStall:   {"watchdog-stall", CatWatchdog, SevError},
	KFastForward:     {"fast-forward", CatWatchdog, SevDebug},
	KGPUCrash:        {"gpu-crash", CatCluster, SevError},
	KCheckpoint:      {"checkpoint", CatCluster, SevDebug},
	KRedispatch:      {"redispatch", CatCluster, SevWarn},
	KBrownout:        {"brownout", CatCluster, SevWarn},
	KShed:            {"job-shed", CatCluster, SevWarn},
	KPower:           {"power", CatPower, SevInfo},
	KGrayFault:       {"gray-fault", CatHealth, SevWarn},
	KHealth:          {"health", CatHealth, SevWarn},
	KQuarantineDrain: {"quarantine-drain", CatHealth, SevWarn},
}

// String returns the kind's short hyphenated name.
func (k Kind) String() string {
	if k < numKinds {
		return kindInfo[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CategoryOf returns the kind's fixed category.
func (k Kind) CategoryOf() Category { return kindInfo[k].cat }

// Event is one recorded occurrence. The struct is flat and pointer-free so a
// ring of events is one allocation for the tracer's lifetime.
type Event struct {
	Cycle uint64
	Kind  Kind
	Sev   Severity
	App   int32 // application slot, -1 when not app-scoped
	Unit  int32 // kind-specific unit id (SM, group, channel, job), 0 default
	A0    int64 // kind-specific payload
	A1    int64
	A2    int64
}

// Filter restricts which events enter the ring. The zero Filter admits
// everything (all categories at SevDebug).
type Filter struct {
	cats   uint32 // bitmask of admitted categories; 0 = all
	minSev Severity
}

// admits reports whether the filter passes an event of the given kind.
func (f Filter) admits(k Kind) bool {
	info := &kindInfo[k]
	if info.sev < f.minSev {
		return false
	}
	return f.cats == 0 || f.cats&(1<<info.cat) != 0
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: large enough to hold every decision-point event of the scaled
// experiment runs without wrapping.
const DefaultCapacity = 1 << 15

// Tracer records events into a preallocated ring and tallies monotonic
// per-kind counters. The nil *Tracer is the disabled tracer: every method is
// nil-safe and free of side effects.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	filter  Filter

	counts      [numKinds]uint64
	filteredOut uint64
	overwritten uint64
}

// New returns a tracer with the given ring capacity (<= 0 selects
// DefaultCapacity) that records every event.
func New(capacity int) *Tracer { return NewFiltered(capacity, Filter{}) }

// NewFiltered returns a tracer whose ring only admits events passing f.
// Counters still tally every emit, so aggregate counts survive filtering.
func NewFiltered(capacity int, f Filter) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]Event, capacity), filter: f}
}

// Emit records one event. The nil-receiver fast path is the entire cost of a
// disabled tracer: one branch, no allocation.
func (t *Tracer) Emit(k Kind, cycle uint64, app, unit int32, a0, a1, a2 int64) {
	if t == nil {
		return
	}
	t.record(k, cycle, app, unit, a0, a1, a2)
}

// record is the enabled-tracer slow path (kept out of Emit so the
// nil-check wrapper stays inlinable at every emit point).
func (t *Tracer) record(k Kind, cycle uint64, app, unit int32, a0, a1, a2 int64) {
	t.counts[k]++
	if !t.filter.admits(k) {
		t.filteredOut++
		return
	}
	if t.wrapped {
		t.overwritten++
	}
	t.ring[t.next] = Event{
		Cycle: cycle, Kind: k, Sev: kindInfo[k].sev,
		App: app, Unit: unit, A0: a0, A1: a1, A2: a2,
	}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
}

// Note bumps a kind's monotonic counter without recording a ring event —
// for streams with no cycle context (e.g. the NoC drop sampler).
func (t *Tracer) Note(k Kind) {
	if t == nil {
		return
	}
	t.counts[k]++
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Len reports the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Count reports how many times kind k was emitted (including events the
// ring filter rejected or later overwrote).
func (t *Tracer) Count(k Kind) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// Overwritten reports how many recorded events the ring has overwritten.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	return t.overwritten
}

// FilteredOut reports how many emits the filter kept out of the ring.
func (t *Tracer) FilteredOut() uint64 {
	if t == nil {
		return 0
	}
	return t.filteredOut
}

// Events returns the ring's events oldest-first as a fresh slice.
func (t *Tracer) Events() []Event {
	if t == nil || t.Len() == 0 {
		return nil
	}
	out := make([]Event, 0, t.Len())
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	return append(out, t.ring[:t.next]...)
}

// Reset clears the ring and every counter, keeping the capacity and filter.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.next = 0
	t.wrapped = false
	t.counts = [numKinds]uint64{}
	t.filteredOut = 0
	t.overwritten = 0
}
