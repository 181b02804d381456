package gpu

import (
	"fmt"
	"slices"

	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// Config describes the modeled GPU. Defaults follow the paper's testbed, a
// Titan V (Volta, 80 SMs), with the µTLB and throttling behaviour the
// paper derives experimentally in §3.
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SMsPerUTLB is how many adjacent SMs share one µTLB ("adjacent SMs
	// share a µTLB", §4.2).
	SMsPerUTLB int
	// MaxFaultsPerUTLB is the maximum outstanding replayable faults per
	// µTLB; the paper measures 56 on Volta (§3.2).
	MaxFaultsPerUTLB int
	// FaultThrottleGap is the minimum interval between fault issues from
	// one SM (the far-fault rate-limiting mechanism, §3.2).
	FaultThrottleGap sim.Time
	// GMMULatency is the delay from fault generation to its record
	// landing in the fault buffer.
	GMMULatency sim.Time
	// InterruptLatency is the delay from buffer write to driver wakeup.
	InterruptLatency sim.Time
	// FaultBufferEntries sizes the circular fault buffer.
	FaultBufferEntries int
	// MaxBlocksPerSM bounds concurrently resident thread blocks per SM.
	MaxBlocksPerSM int
	// OpIssueTime is the pipeline cost of issuing one warp operation.
	OpIssueTime sim.Time
	// MemLatency is the latency of a non-faulting global memory access.
	MemLatency sim.Time
	// RemoteAccessLatency is the latency of a non-faulting access to a
	// remote-mapped page: the data is fetched from host memory across the
	// link (access-counter architecture).
	RemoteAccessLatency sim.Time
	// DirectNotifyLatency replaces InterruptLatency when the fault
	// observer runs on-device (SetDirectObservation): the delay from a
	// buffer write to the page-management unit noticing it.
	DirectNotifyLatency sim.Time
}

// DefaultTitanV returns the paper-testbed GPU profile.
func DefaultTitanV() Config {
	return Config{
		NumSMs:              80,
		SMsPerUTLB:          2,
		MaxFaultsPerUTLB:    56,
		FaultThrottleGap:    500 * sim.Nanosecond,
		GMMULatency:         1 * sim.Microsecond,
		InterruptLatency:    2 * sim.Microsecond,
		FaultBufferEntries:  8192,
		MaxBlocksPerSM:      2,
		OpIssueTime:         20 * sim.Nanosecond,
		MemLatency:          400 * sim.Nanosecond,
		RemoteAccessLatency: 1200 * sim.Nanosecond,
		DirectNotifyLatency: 250 * sim.Nanosecond,
	}
}

// Validate checks the configuration for values the model cannot run with.
func (c Config) Validate() error {
	switch {
	case c.NumSMs < 1:
		return fmt.Errorf("gpu: NumSMs = %d, need >= 1", c.NumSMs)
	case c.SMsPerUTLB < 1:
		return fmt.Errorf("gpu: SMsPerUTLB = %d, need >= 1", c.SMsPerUTLB)
	case c.MaxFaultsPerUTLB < 1:
		return fmt.Errorf("gpu: MaxFaultsPerUTLB = %d, need >= 1", c.MaxFaultsPerUTLB)
	case c.FaultBufferEntries < 1:
		return fmt.Errorf("gpu: FaultBufferEntries = %d, need >= 1", c.FaultBufferEntries)
	case c.MaxBlocksPerSM < 1:
		return fmt.Errorf("gpu: MaxBlocksPerSM = %d, need >= 1", c.MaxBlocksPerSM)
	}
	return nil
}

// ResidencyChecker answers which pages are resident in GPU memory. The
// UVM driver model implements it; the device consults it a run of pages
// at a time.
type ResidencyChecker interface {
	// ResidentRun returns how many of the n pages from first on are
	// resident before the first one that is not, counting only within
	// first's VABlock.
	ResidentRun(first mem.PageID, n uint32) uint32
}

// RemoteChecker extends a ResidencyChecker with remote-mapping state: a
// page may be GPU-accessible across the link while its data stays in
// host memory (the access-counter architecture). RemoteMappingActive
// gates installation — when it reports false at construction the device
// never consults the check, keeping the access hot path the historical
// resident-or-fault two-way split.
type RemoteChecker interface {
	ResidencyChecker
	IsRemoteOnGPU(p mem.PageID) bool
	RemoteMappingActive() bool
}

// Stats aggregates device-side fault accounting.
type Stats struct {
	FaultsEmitted   int // fault records written to the buffer
	DupFaults       int // records written while the page was already pending
	Refaults        int // accesses re-faulted after an unserviced replay
	ThrottleStalls  int // issue attempts delayed by the SM rate throttle
	UTLBFullStalls  int // warp stalls on µTLB capacity
	BlocksCompleted int

	// Fault-injection telemetry (zero unless an injector is attached).
	InjectedDrops       int // delivery attempts dropped by injection
	InjectedDropRetries int // hardware re-emissions after an injected drop
	InjectedDropsLost   int // drops whose re-emission budget ran out

	// Architecture telemetry (zero under the default host-driven arch).
	RemoteAccesses int // accesses satisfied from host memory via remote mapping
	CounterNotices int // notification faults emitted on counter threshold crossings
}

// access is one page access by one warp that waits on a fault: a value
// held by its fault entry, the µTLB's deferred list or a replay's
// recheck buffer. A resident or remote access never becomes one; it goes
// straight to a completion group as a count.
type access struct {
	warp *warp
	page mem.PageID
	kind AccessKind
	reg  int8 // destination scoreboard register for reads, else -1
}

// completionGroup is one engine event that completes a run of accesses.
// A warp op over N resident pages, or a replay rechecking N serviced
// accesses, would otherwise schedule N events at one instant with
// consecutive sequence numbers; no other event can sit between them in
// (at, seq) order, so satisfying them in one callback, in scheduling
// order, dispatches exactly as the N events would. Groups are pooled on
// the Device free list.
type completionGroup struct {
	d       *Device
	members []member
	// now and delay are the scheduling instant and delay of the group's
	// event: an access completing after the same delay from the same
	// instant lands on the same deadline.
	now, delay sim.Time
	// seq is eng.Scheduled() right after the group's event was queued.
	// While it is unchanged, the group's event is the last one scheduled.
	seq uint64
}

// member is n consecutive accesses of a group by one warp into one
// scoreboard register (-1 for writes and prefetches). Satisfying them in
// one call is exact: until the last of them, the warp's regOut[reg] and
// outstanding still count the rest, so neither reaches 0, wakes the warp
// or retires its block before the point the last per-access call did.
type member struct {
	w   *warp
	reg int8
	n   int32
}

func completeGroupFn(v any) {
	g := v.(*completionGroup)
	g.d.completeGroup(g)
}

// complete schedules n accesses of warp w into register reg to be
// satisfied delay from now. It joins the open group when that group's
// event lands on the same deadline and nothing has been scheduled since,
// adding to the group's last member when warp and register match;
// otherwise it opens a new group.
func (d *Device) complete(w *warp, reg int8, n int32, delay sim.Time) {
	now := d.eng.Now()
	if g := d.openGroup; g != nil && g.seq == d.eng.Scheduled() && g.now == now && g.delay == delay {
		if last := &g.members[len(g.members)-1]; last.w == w && last.reg == reg {
			last.n += n
		} else {
			g.members = append(g.members, member{w, reg, n})
		}
		return
	}
	var g *completionGroup
	if n := len(d.groupFree); n > 0 {
		g = d.groupFree[n-1]
		d.groupFree = d.groupFree[:n-1]
	} else {
		g = &completionGroup{d: d}
	}
	g.members = append(g.members, member{w, reg, n})
	g.now, g.delay = now, delay
	d.eng.ScheduleArg(delay, completeGroupFn, g)
	g.seq = d.eng.Scheduled()
	d.openGroup = g
}

// completeGroup satisfies a group's members in scheduling order. The
// group closes first, so completions scheduled by its members open a new
// one. A member that fails the run stops the rest, as the engine would
// not have dispatched their events.
func (d *Device) completeGroup(g *completionGroup) {
	if d.openGroup == g {
		d.openGroup = nil
	}
	for _, m := range g.members {
		if d.eng.Err() != nil {
			break
		}
		m.w.satisfy(m.reg, m.n)
	}
	clear(g.members)
	g.members = g.members[:0]
	d.groupFree = append(d.groupFree, g)
}

// deliverEv is a pooled in-flight fault-record delivery (emitFault ->
// deliver after the GMMU latency). Injection retries reschedule the
// same struct with attempt incremented, so one logical record costs one
// allocation at most, usually none.
type deliverEv struct {
	d       *Device
	f       Fault
	attempt int
}

func deliverFn(v any) {
	de := v.(*deliverEv)
	de.d.deliver(de)
}

// emitEv is a pooled deferred fault emission: the re-fault path's
// throttle-paced hop before emitFault. Kept as its own event so the
// refault chain stays two events (pace, then deliver) — the engine
// sequence numbers, and therefore the digests, depend on it.
type emitEv struct {
	d    *Device
	page mem.PageID
	w    *warp
	kind AccessKind
}

func emitFn(v any) {
	ee := v.(*emitEv)
	d := ee.d
	d.emitFault(ee.page, ee.w, ee.kind, false)
	d.emitFree = append(d.emitFree, ee)
}

// faultEntry is a pending µTLB fault: the page plus all accesses waiting
// on it from this µTLB's SMs.
type faultEntry struct {
	page      mem.PageID
	firstWarp int
	waiters   []access
}

// utlb models one µTLB shared by a group of adjacent SMs.
type utlb struct {
	id  int
	dev *Device
	// pending are replayable fault entries, capped at MaxFaultsPerUTLB.
	pending faultTable
	// prefetchPending tracks prefetch faults, which bypass the cap.
	prefetchPending faultTable
	// stalled warps wait for µTLB capacity.
	stalled []*warp
	// deferred accesses re-fault after a replay found no capacity.
	deferred []access
}

// smState models one streaming multiprocessor.
type smState struct {
	id          int
	dev         *Device
	utlb        *utlb
	nextFaultOK sim.Time // throttle: earliest next fault issue
	live        int      // resident blocks
}

// blockRun tracks a launched thread block.
type blockRun struct {
	index     int
	sm        *smState
	warps     []*warp
	remaining int
}

// warp executes one warp program as a little state machine driven by
// engine events.
type warp struct {
	dev   *Device
	sm    *smState
	block *blockRun
	id    int

	prog Program
	pc   int
	// ri and off are the progress within the current op: the index of
	// the run being issued within the op's span, and the page offset
	// within that run.
	ri  int
	off uint32
	// pass counts the finished passes of the loop being run; 0 outside
	// a loop.
	pass uint32

	// regOut counts outstanding loads per scoreboard register; busy has
	// bit r set while regOut[r] > 0.
	regOut      [NumRegs]int32
	busy        RegMask
	outstanding int // unsatisfied accesses in flight

	waitingRegs   bool
	inFlight      bool // a continuation event is scheduled
	finishedIssue bool
	completed     bool

	// cont and wakeFn are the warp's two callbacks, bound once at warp
	// creation so every schedule/wake reuses them instead of allocating
	// a fresh closure or method value per event.
	cont   func()
	wakeFn func()
}

// Device is the modeled GPU.
type Device struct {
	cfg Config
	eng *sim.Engine
	res ResidencyChecker

	Buffer *FaultBuffer
	utlbs  []*utlb
	sms    []*smState

	onInterrupt func()
	// notifyLat is the buffer-write -> observer-wakeup delay in force:
	// InterruptLatency by default, DirectNotifyLatency after
	// SetDirectObservation (gpu-driven architecture).
	notifyLat sim.Time
	// remote, when installed from a RemoteChecker, reports remote-mapped
	// pages; nil keeps the access path the two-way resident/fault split.
	remote func(p mem.PageID) bool

	kernel     Kernel
	nextBlock  int
	liveBlocks int
	launched   bool
	doneCb     func()

	// Counters is the per-VABlock access-counter bank (disabled unless
	// the driver enables it).
	Counters *AccessCounters

	inj        *faultinject.Injector
	nextWarpID int
	killed     bool
	stats      Stats

	// Free lists for the per-event hot-path records. Recycling them (plus
	// the arg-carrying schedule callbacks above) is what keeps the
	// device's steady-state event traffic allocation-free.
	feFree     []*faultEntry
	delivFree  []*deliverEv
	emitFree   []*emitEv
	recheckBuf []access // replay scratch, reused across replays
	groupFree  []*completionGroup
	// openGroup is the completion group later completions may still join.
	openGroup *completionGroup
}

func (d *Device) newFaultEntry() *faultEntry {
	if n := len(d.feFree); n > 0 {
		e := d.feFree[n-1]
		d.feFree = d.feFree[:n-1]
		return e
	}
	return &faultEntry{}
}

func (d *Device) freeFaultEntry(e *faultEntry) {
	clear(e.waiters)
	e.waiters = e.waiters[:0]
	d.feFree = append(d.feFree, e)
}

func (d *Device) newDeliverEv() *deliverEv {
	if n := len(d.delivFree); n > 0 {
		de := d.delivFree[n-1]
		d.delivFree = d.delivFree[:n-1]
		return de
	}
	return &deliverEv{d: d}
}

func (d *Device) newEmitEv() *emitEv {
	if n := len(d.emitFree); n > 0 {
		ee := d.emitFree[n-1]
		d.emitFree = d.emitFree[:n-1]
		return ee
	}
	return &emitEv{d: d}
}

// NewDevice builds a device on the given engine with the given residency
// oracle. An invalid configuration is an error.
func NewDevice(cfg Config, eng *sim.Engine, res ResidencyChecker) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		eng:       eng,
		res:       res,
		Buffer:    NewFaultBuffer(cfg.FaultBufferEntries),
		Counters:  NewAccessCounters(),
		notifyLat: cfg.InterruptLatency,
	}
	if rc, ok := res.(RemoteChecker); ok && rc.RemoteMappingActive() {
		d.remote = rc.IsRemoteOnGPU
	}
	numUTLBs := (cfg.NumSMs + cfg.SMsPerUTLB - 1) / cfg.SMsPerUTLB
	d.utlbs = make([]*utlb, numUTLBs)
	for i := range d.utlbs {
		d.utlbs[i] = &utlb{id: i, dev: d}
	}
	d.sms = make([]*smState, cfg.NumSMs)
	for i := range d.sms {
		d.sms[i] = &smState{id: i, dev: d, utlb: d.utlbs[i/cfg.SMsPerUTLB]}
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a copy of the device statistics.
func (d *Device) Stats() Stats { return d.stats }

// SetInterruptHandler registers the driver's wakeup callback, invoked
// InterruptLatency after the fault buffer transitions empty -> non-empty.
func (d *Device) SetInterruptHandler(fn func()) { d.onInterrupt = fn }

// SetInjector attaches a fault injector to the fault-delivery path. A nil
// injector (the default) disables injection.
func (d *Device) SetInjector(in *faultinject.Injector) { d.inj = in }

// SetDirectObservation switches fault-observer wakeup to the on-device
// path: notifications fire DirectNotifyLatency after a buffer write
// instead of crossing PCIe at InterruptLatency (gpu-driven architecture).
func (d *Device) SetDirectObservation() {
	if lat := d.cfg.DirectNotifyLatency; lat > 0 {
		d.notifyLat = lat
	}
}

// LaunchKernel starts a kernel; done is called when every block retires.
// Only one kernel may run at a time.
func (d *Device) LaunchKernel(k Kernel, done func()) error {
	if d.killed {
		return ErrDeviceDead
	}
	if d.launched {
		return ErrKernelRunning
	}
	if k.NumBlocks < 0 {
		return fmt.Errorf("gpu: %d blocks: %w", k.NumBlocks, ErrBadKernel)
	}
	d.kernel = k
	d.nextBlock = 0
	d.liveBlocks = 0
	d.launched = true
	d.doneCb = done
	if k.NumBlocks == 0 {
		d.finishKernel()
		return nil
	}
	// Fill every SM up to its resident-block limit, round-robin, the way
	// a real grid launch distributes blocks.
	for slot := 0; slot < d.cfg.MaxBlocksPerSM; slot++ {
		for _, s := range d.sms {
			if d.nextBlock >= k.NumBlocks {
				return nil
			}
			d.startBlock(s)
		}
	}
	return nil
}

func (d *Device) startBlock(s *smState) {
	idx := d.nextBlock
	d.nextBlock++
	d.liveBlocks++
	s.live++
	progs := d.kernel.BlockProgram(idx)
	br := &blockRun{index: idx, sm: s, remaining: len(progs), warps: make([]*warp, 0, len(progs))}
	for _, p := range progs {
		if err := p.validate(); err != nil {
			// Reachable through user-supplied custom workloads, so a
			// malformed program is the run's terminal error, not a panic.
			d.eng.Fail(fmt.Errorf("gpu: warp %d: %w", d.nextWarpID, err))
			return
		}
		w := &warp{
			dev:   d,
			sm:    s,
			block: br,
			id:    d.nextWarpID,
			prog:  p,
		}
		d.nextWarpID++
		w.cont = func() {
			w.inFlight = false
			w.run()
		}
		w.wakeFn = w.wake
		br.warps = append(br.warps, w)
	}
	if len(br.warps) == 0 {
		d.blockFinished(br)
		return
	}
	for _, w := range br.warps {
		// cont is run() behind an inFlight clear; inFlight is false at
		// launch, so this is the plain initial run.
		d.eng.Schedule(0, w.cont)
	}
}

func (d *Device) blockFinished(br *blockRun) {
	d.stats.BlocksCompleted++
	d.liveBlocks--
	br.sm.live--
	if d.nextBlock < d.kernel.NumBlocks {
		d.startBlock(br.sm)
		return
	}
	if d.liveBlocks == 0 {
		d.finishKernel()
	}
}

func (d *Device) finishKernel() {
	d.launched = false
	if cb := d.doneCb; cb != nil {
		d.doneCb = nil
		cb()
	}
}

// Running reports whether a kernel is in flight.
func (d *Device) Running() bool { return d.launched }

// Kill simulates catastrophic device loss (falling off the bus): the
// running kernel is abandoned without its completion callback, the fault
// buffer and every µTLB are cleared, and all future warp activity,
// fault deliveries, replays, and launches become no-ops. In-flight
// engine events referencing the device land on these guards and expire
// harmlessly. Kill is idempotent.
func (d *Device) Kill() {
	if d.killed {
		return
	}
	d.killed = true
	d.launched = false
	d.doneCb = nil
	d.liveBlocks = 0
	d.Buffer.Flush()
	for _, u := range d.utlbs {
		u.pending.reset()
		u.prefetchPending.reset()
		u.stalled = nil
		u.deferred = nil
	}
	for _, s := range d.sms {
		s.live = 0
	}
}

// Killed reports whether the device has been killed.
func (d *Device) Killed() bool { return d.killed }

// emitFault writes a fault record into the buffer after the GMMU latency
// and raises the interrupt line on an empty->non-empty transition.
func (d *Device) emitFault(page mem.PageID, w *warp, kind AccessKind, dup bool) {
	de := d.newDeliverEv()
	de.f = Fault{
		Issued: d.eng.Now(),
		Page:   page,
		SM:     w.sm.id,
		UTLB:   w.sm.utlb.id,
		Warp:   int32(w.id),
		Block:  int32(w.block.index),
		Kind:   kind,
		Dup:    dup,
	}
	de.attempt = 0
	d.eng.ScheduleArg(d.cfg.GMMULatency, deliverFn, de)
}

// deliver lands one fault record in the buffer. With fault injection
// enabled the write can be dropped as if the buffer had overflowed; the
// hardware then re-emits the record after a delay, up to the configured
// budget. A record that exhausts its budget stays lost until the driver's
// next fault replay re-checks the µTLB's pending entries (the software
// safety net real GPUs rely on for dropped faults).
func (d *Device) deliver(de *deliverEv) {
	if d.killed {
		d.delivFree = append(d.delivFree, de)
		return
	}
	if d.inj.ShouldDropFault() {
		d.stats.InjectedDrops++
		if de.attempt < d.inj.BufferRetryBudget() {
			d.inj.NoteRetried(faultinject.BufferDrop)
			d.stats.InjectedDropRetries++
			delay := d.inj.BufferRetryDelay()
			if delay <= 0 {
				delay = d.cfg.GMMULatency
			}
			de.attempt++
			d.eng.ScheduleArg(delay, deliverFn, de)
		} else {
			// Budget exhausted: the record is lost. If a later batch
			// replays, the waiting access re-faults (software recovery);
			// otherwise the run surfaces a stall diagnostic.
			d.inj.NoteUnrecovered(faultinject.BufferDrop)
			d.stats.InjectedDropsLost++
			d.delivFree = append(d.delivFree, de)
		}
		return
	}
	if de.attempt > 0 {
		d.inj.NoteRecovered(faultinject.BufferDrop)
	}
	f := de.f
	d.delivFree = append(d.delivFree, de)
	f.Time = d.eng.Now()
	wasEmpty := d.Buffer.Len() == 0
	if !d.Buffer.Push(f) {
		return
	}
	d.stats.FaultsEmitted++
	if f.Dup {
		d.stats.DupFaults++
	}
	if wasEmpty && d.onInterrupt != nil {
		d.eng.Schedule(d.notifyLat, d.onInterrupt)
	}
}

// Replay clears all µTLB fault entries and re-checks every waiting access,
// as a driver-issued fault replay does: serviced pages complete, while
// unserviced accesses re-fault (§4.2).
func (d *Device) Replay() {
	if d.killed {
		return
	}
	rechecks := d.recheckBuf[:0]
	for _, u := range d.utlbs {
		for _, e := range u.pending.entries {
			rechecks = appendDoubling(rechecks, e.waiters)
			d.freeFaultEntry(e)
		}
		for _, e := range u.prefetchPending.entries {
			rechecks = appendDoubling(rechecks, e.waiters)
			d.freeFaultEntry(e)
		}
		u.pending.reset()
		u.prefetchPending.reset()
		// Deferred re-faults from the previous replay go first.
		rechecks = appendDoubling(rechecks, u.deferred)
		u.deferred = u.deferred[:0]
	}
	for _, acc := range rechecks {
		d.recheck(acc)
	}
	clear(rechecks)
	d.recheckBuf = rechecks[:0]
	// Capacity freed: wake warps stalled on full µTLBs.
	for _, u := range d.utlbs {
		stalled := u.stalled
		u.stalled = u.stalled[:0]
		for _, w := range stalled {
			d.eng.Schedule(0, w.wakeFn)
		}
	}
}

// appendDoubling appends vs to buf, growing it by at least its own length.
// The replay scratch grows to the largest replay of the run, and append
// alone would take it there past 256 elements in 1.25× steps, copying it
// several times over.
func appendDoubling[T any](buf, vs []T) []T {
	if len(buf)+len(vs) > cap(buf) {
		buf = slices.Grow(buf, max(len(buf), len(vs)))
	}
	return append(buf, vs...)
}

// recheck resolves one access after a replay: satisfy if now resident or
// remote-mapped, otherwise re-fault.
func (d *Device) recheck(acc access) {
	if d.res.ResidentRun(acc.page, 1) == 1 {
		d.complete(acc.warp, acc.reg, 1, d.cfg.MemLatency)
		return
	}
	if d.remote != nil && d.remote(acc.page) {
		d.recordRemote(acc.page, acc.warp)
		d.complete(acc.warp, acc.reg, 1, d.cfg.RemoteAccessLatency)
		return
	}
	d.stats.Refaults++
	d.refault(acc)
}

// recordRemote notes one access satisfied through a remote mapping and,
// exactly when the block's counter crosses the threshold, emits a
// notification fault so the driver's next batch observes the crossing
// and promotes the block. No µTLB entry is made — nothing waits on a
// notification fault.
func (d *Device) recordRemote(page mem.PageID, w *warp) {
	d.stats.RemoteAccesses++
	if d.Counters.recordRemote(page) {
		d.stats.CounterNotices++
		d.emitFault(page, w, AccessNotify, false)
	}
}

// refault re-inserts an access's fault after an unserviced replay. The
// µTLB slot is claimed immediately; the fault record emission is paced by
// the SM throttle like any other fault (prefetch re-faults stay exempt).
// Capacity overflow defers the access to the next replay.
func (d *Device) refault(acc access) {
	u := acc.warp.sm.utlb
	w := acc.warp
	if acc.kind == AccessPrefetch {
		if e := u.prefetchPending.find(acc.page); e != nil {
			e.waiters = append(e.waiters, acc)
			return
		}
		u.prefetchPending.add(d.pendFaultEntry(acc, w))
		d.emitFault(acc.page, w, acc.kind, false)
		return
	}
	if e := u.pending.find(acc.page); e != nil {
		e.waiters = append(e.waiters, acc)
		return
	}
	if u.pending.len() >= d.cfg.MaxFaultsPerUTLB {
		u.deferred = append(u.deferred, acc)
		return
	}
	u.pending.add(d.pendFaultEntry(acc, w))
	delay := w.sm.reserveThrottleSlot()
	if delay == 0 {
		d.emitFault(acc.page, w, acc.kind, false)
		return
	}
	ee := d.newEmitEv()
	ee.page, ee.w, ee.kind = acc.page, w, acc.kind
	d.eng.ScheduleArg(delay, emitFn, ee)
}

// pendFaultEntry builds a pooled pending-fault entry with acc as its
// first waiter.
func (d *Device) pendFaultEntry(acc access, w *warp) *faultEntry {
	e := d.newFaultEntry()
	e.page, e.firstWarp = acc.page, w.id
	e.waiters = append(e.waiters, acc)
	return e
}

// ---- warp execution ----

func (w *warp) schedule(delay sim.Time) {
	w.inFlight = true
	w.dev.eng.Schedule(delay, w.cont)
}

// wake resumes a warp parked on a scoreboard or µTLB stall.
func (w *warp) wake() {
	if !w.inFlight && !w.finishedIssue && !w.dev.killed {
		w.run()
	}
}

func (w *warp) depsReady(deps RegMask) bool { return w.busy&deps == 0 }

type issueResult uint8

const (
	issueOK issueResult = iota
	issueStallUTLB
	issueThrottled
)

// run advances the warp program until it blocks or retires.
func (w *warp) run() {
	if w.inFlight || w.finishedIssue || w.dev.killed {
		return
	}
	for w.pc < len(w.prog.Ops) {
		op := &w.prog.Ops[w.pc]
		if op.Kind == OpLoop {
			// Jump back or fall through, at no simulated cost: the
			// events are those of the unrolled program.
			if w.pass++; w.pass < op.Hi {
				w.pc = int(op.Lo)
			} else {
				w.pass = 0
				w.pc++
			}
			continue
		}
		if op.Kind == OpCompute {
			if !w.depsReady(op.Deps) {
				w.waitingRegs = true
				return
			}
			w.pc++
			w.schedule(op.Dur)
			return
		}
		// A memory op: the block's start validated the kind and span.
		if op.Kind == OpWrite && !w.depsReady(op.Deps) {
			// Scoreboard stall: the STG cannot issue (and so cannot
			// fault) until its operand loads complete.
			w.waitingRegs = true
			return
		}
		runs := w.prog.Runs[op.Lo:op.Hi]
		shift := op.shift(w.pass)
		for ; w.ri < len(runs); w.ri++ {
			r := runs[w.ri]
			step := r.stride()
			for w.off < r.N {
				page := r.First + shift + mem.PageID(w.off)*step
				// Resident pages complete at memory latency, a run at a
				// time: a contiguous run asks for the rest of the run, a
				// strided one for one page.
				ask := uint32(1)
				if step == 1 {
					ask = r.N - w.off
				}
				if k := w.dev.res.ResidentRun(page, ask); k > 0 {
					w.completeResident(page, k, op)
					w.off += k
					continue
				}
				switch w.issue(page, op) {
				case issueStallUTLB:
					return // resumed by wake() at replay
				case issueThrottled:
					return // retry already scheduled
				}
				w.off++
			}
			w.off = 0
		}
		w.ri = 0
		w.pc++
		w.schedule(w.dev.cfg.OpIssueTime)
		return
	}
	w.finishedIssue = true
	w.maybeComplete()
}

// completeResident performs k accesses of the current op to the resident
// pages from page on, all in page's VABlock: they count on the block's
// access counter and complete at memory latency.
func (w *warp) completeResident(page mem.PageID, k uint32, op *Op) {
	d := w.dev
	d.Counters.record(page.VABlock(), uint64(k))
	d.complete(w, w.track(op, int32(k)), int32(k), d.cfg.MemLatency)
}

// issue performs one access of the current op to a page that is not
// resident: a remote access, a prefetch fault or a fault.
func (w *warp) issue(page mem.PageID, op *Op) issueResult {
	d := w.dev
	kind := accessKindOf(op.Kind)
	if d.remote != nil && d.remote(page) {
		// Remote-mapped: the access reaches host memory across the link
		// without faulting (access-counter architecture).
		d.recordRemote(page, w)
		d.complete(w, w.track(op, 1), 1, d.cfg.RemoteAccessLatency)
		return issueOK
	}
	u := w.sm.utlb
	if kind == AccessPrefetch {
		// Prefetch faults bypass the µTLB cap and the throttle.
		acc := w.waiter(page, kind, op)
		if e := u.prefetchPending.find(page); e != nil {
			e.waiters = append(e.waiters, acc)
			if e.firstWarp != w.id {
				d.emitFault(page, w, kind, true)
			}
			return issueOK
		}
		u.prefetchPending.add(d.pendFaultEntry(acc, w))
		d.emitFault(page, w, kind, false)
		return issueOK
	}
	if e := u.pending.find(page); e != nil {
		// Same page already pending in this µTLB: join the entry. A
		// different warp issuing the same fault writes a duplicate
		// record (type-1 duplicate, §4.2).
		acc := w.waiter(page, kind, op)
		e.waiters = append(e.waiters, acc)
		if e.firstWarp != w.id {
			d.emitFault(page, w, kind, true)
		}
		return issueOK
	}
	if u.pending.len() >= d.cfg.MaxFaultsPerUTLB {
		d.stats.UTLBFullStalls++
		u.stalled = append(u.stalled, w)
		return issueStallUTLB
	}
	if wait := w.sm.throttleDelay(); wait > 0 {
		d.stats.ThrottleStalls++
		w.schedule(wait)
		return issueThrottled
	}
	acc := w.waiter(page, kind, op)
	u.pending.add(d.pendFaultEntry(acc, w))
	w.sm.chargeThrottle()
	d.emitFault(page, w, kind, false)
	return issueOK
}

func accessKindOf(k OpKind) AccessKind {
	switch k {
	case OpRead:
		return AccessRead
	case OpWrite:
		return AccessWrite
	case OpPrefetch:
		return AccessPrefetch
	}
	panic("gpu: not a memory op")
}

// track registers k outstanding accesses of op and returns their
// scoreboard register: op's destination for a read, else -1.
func (w *warp) track(op *Op, k int32) int8 {
	reg := int8(-1)
	if op.Kind == OpRead {
		reg = op.Dst
		w.regOut[reg] += k
		w.busy |= 1 << reg
	}
	w.outstanding += int(k)
	return reg
}

// waiter registers one outstanding access of op to page, which is about
// to wait on a fault, and returns its record.
func (w *warp) waiter(page mem.PageID, kind AccessKind, op *Op) access {
	return access{warp: w, page: page, kind: kind, reg: w.track(op, 1)}
}

// satisfy completes n accesses into register reg (-1 for none): data
// arrived, or the stores landed. A killed device ignores it.
func (w *warp) satisfy(reg int8, n int32) {
	if w.dev.killed {
		return
	}
	w.outstanding -= int(n)
	if reg >= 0 {
		w.regOut[reg] -= n
		if w.regOut[reg] == 0 {
			w.busy &^= 1 << reg
			if w.waitingRegs {
				w.waitingRegs = false
				w.dev.eng.Schedule(0, w.wakeFn)
			}
		}
	}
	w.maybeComplete()
}

func (w *warp) maybeComplete() {
	if w.finishedIssue && w.outstanding == 0 && !w.completed {
		w.completed = true
		br := w.block
		br.remaining--
		if br.remaining == 0 {
			w.dev.blockFinished(br)
		}
	}
}

func (s *smState) throttleDelay() sim.Time {
	now := s.dev.eng.Now()
	if now < s.nextFaultOK {
		return s.nextFaultOK - now
	}
	return 0
}

func (s *smState) chargeThrottle() {
	s.nextFaultOK = s.dev.eng.Now() + s.dev.cfg.FaultThrottleGap
}

// reserveThrottleSlot books the SM's next fault-issue slot and returns how
// long from now it is. Used by the re-fault path, which paces emissions
// without re-running the warp.
func (s *smState) reserveThrottleSlot() sim.Time {
	now := s.dev.eng.Now()
	start := now
	if s.nextFaultOK > start {
		start = s.nextFaultOK
	}
	s.nextFaultOK = start + s.dev.cfg.FaultThrottleGap
	return start - now
}
