package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/telemetry"
)

// Config controls one simulation run.
type Config struct {
	// Model is the memory consistency model to simulate. Default SC.
	Model memmodel.Model
	// Seed drives the interleaving scheduler and retirement order. The same
	// (program, Config) pair always produces the same execution.
	Seed int64
	// MaxSteps bounds the scheduler (guards against spin loops that never
	// win the lock). Default 1 << 20.
	MaxSteps int
	// BufferCap is the per-processor store buffer capacity; issuing a data
	// write into a full buffer first retires one entry. Default 16.
	BufferCap int
	// RetireProb is the probability that a scheduler step retires a
	// buffered write instead of executing an instruction, when both are
	// possible. Smaller values keep writes buffered longer and make
	// reorderings more visible. Default 0.3.
	RetireProb float64
	// Pathological enables value speculation on data reads: with
	// probability PathologicalProb a read returns the location's previous
	// committed value. This deliberately violates the paper's Condition
	// 3.4 — even race-free executions stop being sequentially consistent —
	// and exists only for the ablation experiment (Theorem 3.5).
	Pathological bool
	// PathologicalProb is the per-read speculation probability when
	// Pathological is set. Default 0.05.
	PathologicalProb float64
	// MemLatency is the cycle cost of a memory operation that must reach
	// the globally visible state before the processor continues: direct
	// writes (all SC data writes, all synchronization writes), reads that
	// miss the store buffer, and each write a synchronization-induced
	// drain still has to flush. Buffered writes and forwarded reads cost
	// one cycle. This is the cost model behind the weak-vs-SC performance
	// experiment (T1). Default 8.
	MemLatency int64
	// InitMemory presets shared locations before the run; unset locations
	// start at zero.
	InitMemory map[program.Addr]int64
	// Script fixes the first len(Script) scheduler decisions, after which
	// the seeded random scheduler takes over. Scripts construct specific
	// interleavings deterministically (e.g. the Figure 2b anomaly without
	// a seed search); an inapplicable decision is an error.
	Script []Decision
}

func (c Config) withDefaults() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 20
	}
	if c.BufferCap == 0 {
		c.BufferCap = 16
	}
	if c.RetireProb == 0 {
		c.RetireProb = 0.3
	}
	if c.PathologicalProb == 0 {
		c.PathologicalProb = 0.05
	}
	if c.MemLatency == 0 {
		c.MemLatency = 8
	}
	return c
}

// Result is the outcome of a run.
type Result struct {
	// Exec is the full value-annotated execution record.
	Exec *Execution
	// FinalMemory is the committed shared memory after all buffers drained.
	FinalMemory []int64
	// Steps is the number of scheduler steps consumed.
	Steps int
	// CyclesPerCPU is each processor's accumulated cycle cost under the
	// MemLatency cost model (stalls for direct writes, read misses, and
	// synchronization-induced drains).
	CyclesPerCPU []int64
	// Completed reports whether every processor halted before MaxSteps.
	Completed bool
}

// Makespan returns the largest per-processor cycle count — the modeled
// wall-clock cost of the execution.
func (r *Result) Makespan() int64 {
	var m int64
	for _, c := range r.CyclesPerCPU {
		if c > m {
			m = c
		}
	}
	return m
}

// memCell is one committed shared-memory location.
type memCell struct {
	val    int64
	writer int // op ID of the committing write, or InitialWrite
}

// bufEntry is one pending write in a store buffer.
type bufEntry struct {
	loc program.Addr
	val int64
	id  int // op ID of the write
}

// cpuState is the architectural state of one simulated processor.
type cpuState struct {
	regs   []int64
	pc     int
	halted bool
	buf    []bufEntry
}

type machine struct {
	prog    *program.Program
	cfg     Config
	rng     *rand.Rand
	mem     []memCell
	prev    []memCell // previous committed value per location (speculation source)
	cpus    []cpuState
	exec    *Execution
	step    int
	syncSeq []int   // next sync sequence number per location
	cycles  []int64 // per-processor cycle cost (MemLatency model)
	stalls  int64   // memory-system stalls charged at MemLatency
	retired int64   // buffered writes committed
	drains  int64   // synchronization-induced buffer drains
	err     error   // first runtime error (e.g. indexed address out of range)
	// Per-step scheduler scratch. The step loop rebuilds these every
	// iteration; as locals they were one heap allocation per append group
	// per step — the simulator's dominant allocation source.
	runnable   []int
	retirable  []int
	retireLocs []program.Addr // retireOne's first-seen location scratch
}

// machinePool reuses machine state — memory cells, processor state,
// store buffers, scheduler scratch, the seeded rng — across Run calls,
// which pass no Arena. Everything a Result retains lives in the run's
// Arena instead and never returns to the pool.
var machinePool = sync.Pool{New: func() any { return new(machine) }}

// Arena holds what a run's Result retains — the Result and its
// Execution, the op log, the per-CPU op lists, the initial and final
// memory and the cycle counts — plus the machine state the run steps.
// A caller running many seeds (a campaign worker) passes one arena to
// every RunInto, so the op log and the per-CPU lists keep their
// capacity instead of regrowing from empty on every run. Like
// trace.Arena, the slabs ARE retained by the Result: running through an
// arena again invalidates the previous Result and its Execution, so an
// arena must only be reused once they are dead, and must not be shared
// by concurrent runs.
type Arena struct {
	res  Result
	exec Execution
	m    *machine
}

// NewArena returns an empty arena. Slabs grow to the working-set size
// of the runs made through it and are then reused.
func NewArena() *Arena { return &Arena{} }

// reset prepares ar's Result and Execution for one run of p under cfg,
// keeping every slab's capacity: the op log and per-CPU lists empty,
// the cycle counts zeroed. The memory slabs are sized here and filled by
// the run.
func (ar *Arena) reset(p *program.Program, cfg Config) {
	nCPU := p.NumThreads()
	perCPU := ar.exec.PerCPU[:cap(ar.exec.PerCPU)]
	if len(perCPU) < nCPU {
		perCPU = append(perCPU, make([][]int, nCPU-len(perCPU))...)
	}
	perCPU = perCPU[:nCPU]
	for c := range perCPU {
		perCPU[c] = perCPU[c][:0]
	}
	ar.exec = Execution{
		ProgramName:           p.Name,
		Model:                 cfg.Model,
		Seed:                  cfg.Seed,
		NumCPUs:               nCPU,
		NumLocations:          p.NumLocations,
		InitMemory:            grow(ar.exec.InitMemory, p.NumLocations),
		Ops:                   ar.exec.Ops[:0],
		PerCPU:                perCPU,
		FirstStaleObservation: -1,
	}
	cycles := grow(ar.res.CyclesPerCPU, nCPU)
	clear(cycles)
	ar.res = Result{
		Exec:         &ar.exec,
		FinalMemory:  grow(ar.res.FinalMemory, p.NumLocations),
		CyclesPerCPU: cycles,
	}
}

// grow returns buf resliced to n, reallocating when its capacity is
// short or it is nil (a fresh arena's slabs come out exactly as make
// would give them). The contents are NOT zeroed.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n || buf == nil {
		return make([]T, n)
	}
	return buf[:n]
}

// reset prepares a machine for one run of p under cfg recording into
// ar: reusable buffers keep their capacity and are re-zeroed, and the
// rng is re-seeded (Seed resets the source to exactly the
// rand.NewSource(seed) stream, so a reused machine's schedule is
// byte-identical to a fresh one's).
func (m *machine) reset(p *program.Program, cfg Config, ar *Arena) {
	m.prog, m.cfg = p, cfg
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		m.rng.Seed(cfg.Seed)
	}
	if cap(m.mem) < p.NumLocations {
		m.mem = make([]memCell, p.NumLocations)
		m.prev = make([]memCell, p.NumLocations)
		m.syncSeq = make([]int, p.NumLocations)
	}
	m.mem = m.mem[:p.NumLocations]
	m.prev = m.prev[:p.NumLocations]
	m.syncSeq = m.syncSeq[:p.NumLocations]
	for i := range m.mem {
		m.mem[i] = memCell{writer: InitialWrite}
		m.prev[i] = memCell{writer: InitialWrite}
		m.syncSeq[i] = 0
	}
	nCPU := p.NumThreads()
	if cap(m.cpus) < nCPU {
		m.cpus = make([]cpuState, nCPU)
	}
	m.cpus = m.cpus[:nCPU]
	for c := range m.cpus {
		cs := &m.cpus[c]
		if cap(cs.regs) < p.NumRegs {
			cs.regs = make([]int64, p.NumRegs)
		}
		cs.regs = cs.regs[:p.NumRegs]
		for i := range cs.regs {
			cs.regs[i] = 0
		}
		cs.pc, cs.halted, cs.buf = 0, false, cs.buf[:0]
	}
	ar.reset(p, cfg)
	m.exec, m.cycles = ar.res.Exec, ar.res.CyclesPerCPU
	m.step, m.stalls, m.retired, m.drains = 0, 0, 0, 0
	m.err = nil
}

// release drops every reference the caller may retain (the execution,
// the cycle slice) or that would pin the program alive, so an idle
// machine holds only its own buffers.
func (m *machine) release() {
	m.prog, m.exec, m.cycles = nil, nil, nil
	m.cfg = Config{}
}

// Run executes the program under the configuration and returns the
// execution record. Run is deterministic in (p, cfg). It is RunInto
// with a fresh arena.
func Run(p *program.Program, cfg Config) (*Result, error) {
	return RunInto(p, cfg, nil)
}

// RunInto is Run recording into ar's slabs (see Arena); a nil arena
// allocates freshly, exactly like Run. The Result is the same either
// way.
func RunInto(p *program.Program, cfg Config, ar *Arena) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cfg = cfg.withDefaults()
	defer telemetry.Default().StartSpan("sim.run").End()
	var m *machine
	if ar == nil {
		ar, m = new(Arena), machinePool.Get().(*machine)
		defer machinePool.Put(m)
	} else {
		if ar.m == nil {
			ar.m = new(machine)
		}
		m = ar.m
	}
	m.reset(p, cfg, ar)
	defer m.release()
	for a, v := range cfg.InitMemory {
		if a < 0 || int(a) >= p.NumLocations {
			return nil, fmt.Errorf("sim: InitMemory location %d out of range [0,%d)", a, p.NumLocations)
		}
		m.mem[a].val = v
		m.prev[a].val = v
	}
	for i := range m.mem {
		m.exec.InitMemory[i] = m.mem[i].val
	}

	completed := false
	for m.step = 0; m.step < cfg.MaxSteps; m.step++ {
		if m.err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", m.step, m.err)
		}
		runnable, retirable := m.runnable[:0], m.retirable[:0]
		for c := range m.cpus {
			if !m.cpus[c].halted {
				runnable = append(runnable, c)
			}
			if len(m.cpus[c].buf) > 0 {
				retirable = append(retirable, c)
			}
		}
		m.runnable, m.retirable = runnable, retirable
		if m.step < len(cfg.Script) {
			if err := m.applyScripted(cfg.Script[m.step]); err != nil {
				return nil, fmt.Errorf("sim: step %d: %w", m.step, err)
			}
			continue
		}
		if len(runnable) == 0 && len(retirable) == 0 {
			completed = true
			break
		}
		retire := len(retirable) > 0 &&
			(len(runnable) == 0 || m.rng.Float64() < cfg.RetireProb)
		if retire {
			m.retireOne(retirable[m.rng.Intn(len(retirable))])
		} else {
			m.execInstr(runnable[m.rng.Intn(len(runnable))])
		}
	}
	if m.err != nil {
		return nil, fmt.Errorf("sim: step %d: %w", m.step, m.err)
	}
	// Drain any writes still buffered (normal completion drains nothing;
	// MaxSteps exhaustion can leave pending writes behind).
	for {
		retirable := m.retirable[:0]
		for c := range m.cpus {
			if len(m.cpus[c].buf) > 0 {
				retirable = append(retirable, c)
			}
		}
		m.retirable = retirable
		if len(retirable) == 0 {
			break
		}
		m.retireOne(retirable[m.rng.Intn(len(retirable))])
		m.step++
	}

	r := &ar.res
	for i, cell := range m.mem {
		r.FinalMemory[i] = cell.val
	}
	r.Steps, r.Completed = m.step, completed
	m.flushTelemetry(completed)
	return r, nil
}

// flushTelemetry batches the run's counters into the default registry,
// labeled by memory model. One guarded batch per run keeps the scheduler
// loop free of telemetry costs when collection is disabled.
func (m *machine) flushTelemetry(completed bool) {
	reg := telemetry.Default()
	if !reg.Enabled() {
		return
	}
	model := m.cfg.Model.String()
	add := func(name string, v int64) {
		if v != 0 {
			reg.Counter(telemetry.Name(name, "model", model)).Add(v)
		}
	}
	add("sim.runs", 1)
	if !completed {
		add("sim.incomplete_runs", 1)
	}
	add("sim.steps", int64(m.step))
	add("sim.ops", int64(len(m.exec.Ops)))
	add("sim.stall_events", m.stalls)
	add("sim.retired_writes", m.retired)
	add("sim.sync_drains", m.drains)
	// Reordering visibility: reads served from or past a non-empty store
	// buffer, and reads that observed a write while older writes were
	// still buffered (the paper's stale observations).
	add("sim.forwarded_reads", int64(m.exec.ForwardedReads))
	add("sim.bypass_reads", int64(m.exec.BypassReads))
	add("sim.stale_reads", int64(m.exec.StaleReads))
	add("sim.speculative_reads", int64(m.exec.SpeculativeReads))
	var cycles int64
	for _, c := range m.cycles {
		cycles += c
	}
	add("sim.cycles", cycles)
}

// record appends a memory operation to the execution and returns its ID.
func (m *machine) record(op MemOp) int {
	op.ID = len(m.exec.Ops)
	m.exec.Ops = append(m.exec.Ops, op)
	m.exec.PerCPU[op.CPU] = append(m.exec.PerCPU[op.CPU], op.ID)
	return op.ID
}

// nextSyncSeq allocates the next synchronization sequence number for loc.
func (m *machine) nextSyncSeq(loc program.Addr) int {
	s := m.syncSeq[loc]
	m.syncSeq[loc]++
	return s
}

// commit makes a write globally visible.
func (m *machine) commit(loc program.Addr, val int64, id int) {
	m.prev[loc] = m.mem[loc]
	m.mem[loc] = memCell{val: val, writer: id}
	m.exec.Ops[id].CommitStep = m.step
}

// retireIdx commits buffer entry i of processor c, preserving per-location
// program order: it must only be called with the oldest buffered entry for
// its location.
func (m *machine) retireIdx(c, i int) {
	e := m.cpus[c].buf[i]
	m.commit(e.loc, e.val, e.id)
	m.cpus[c].buf = append(m.cpus[c].buf[:i], m.cpus[c].buf[i+1:]...)
	m.retired++
}

// oldestFor returns the index of the oldest buffered entry for loc, or -1.
// Buffer order is issue order, so the first match is the oldest.
func (m *machine) oldestFor(c int, loc program.Addr) int {
	for i, e := range m.cpus[c].buf {
		if e.loc == loc {
			return i
		}
	}
	return -1
}

// retireOne retires one buffered write of processor c. On a FIFO model
// (TSO) it commits the oldest entry, preserving total store order. On the
// paper's weak models it picks a random buffered location and commits
// that location's oldest entry: FIFO per location (coherence) but
// unordered across locations — exactly the data-operation reordering
// those models allow between synchronization points.
func (m *machine) retireOne(c int) {
	buf := m.cpus[c].buf
	if len(buf) == 0 {
		return
	}
	if m.cfg.Model.FIFOStoreBuffer() {
		m.retireIdx(c, 0)
		return
	}
	// First-seen order (not sorted) keeps rng draws — and with them every
	// downstream execution — identical to the old map+slice dedup. Store
	// buffers hold a handful of entries, so the linear membership scan
	// beats a freshly allocated map.
	locs := m.retireLocs[:0]
	for _, e := range buf {
		known := false
		for _, l := range locs {
			if l == e.loc {
				known = true
				break
			}
		}
		if !known {
			locs = append(locs, e.loc)
		}
	}
	m.retireLocs = locs
	loc := locs[m.rng.Intn(len(locs))]
	m.retireIdx(c, m.oldestFor(c, loc))
}

// retireLoc commits every buffered write of processor c to loc, in order.
// Direct (unbuffered) writes call this first so a location's writes are
// never observed out of program order.
func (m *machine) retireLoc(c int, loc program.Addr) {
	for {
		i := m.oldestFor(c, loc)
		if i < 0 {
			return
		}
		m.retireIdx(c, i)
	}
}

// drain commits every buffered write of processor c, FIFO per location but
// in random order across locations.
func (m *machine) drain(c int) {
	for len(m.cpus[c].buf) > 0 {
		m.retireOne(c)
	}
}

// readShared performs a read of loc by processor c and records it.
func (m *machine) readShared(c int, pc int, kind OpKind, loc program.Addr) int64 {
	cpu := &m.cpus[c]
	// Store-to-load forwarding: the newest buffered write to loc, if any.
	for i := len(cpu.buf) - 1; i >= 0; i-- {
		if cpu.buf[i].loc == loc {
			m.exec.ForwardedReads++
			m.record(MemOp{
				CPU: c, PC: pc, Kind: kind, Loc: loc,
				Value: cpu.buf[i].val, ObservedWrite: cpu.buf[i].id,
				SyncSeq: m.maybeSyncSeq(kind, loc),
				Step:    m.step, CommitStep: m.step,
			})
			return cpu.buf[i].val
		}
	}
	m.cycles[c] += m.cfg.MemLatency // read miss: wait for the memory system
	m.stalls++
	cell := m.mem[loc]
	speculative := false
	if m.cfg.Pathological && kind == OpDataRead &&
		m.rng.Float64() < m.cfg.PathologicalProb {
		cell = m.prev[loc]
		speculative = true
		m.exec.SpeculativeReads++
	}
	if len(cpu.buf) > 0 {
		m.exec.BypassReads++
	}
	id := m.record(MemOp{
		CPU: c, PC: pc, Kind: kind, Loc: loc,
		Value: cell.val, ObservedWrite: cell.writer,
		SyncSeq: m.maybeSyncSeq(kind, loc),
		Step:    m.step, CommitStep: m.step,
		Speculative: speculative,
	})
	// Stale-observation witness: we saw write w while w's processor still
	// buffers a write older than w. Any intervening release would have
	// drained that buffer, so this read races with w and marks where a
	// reordering became observable (the paper's "End of SCP" in Fig. 2b).
	if cell.writer >= 0 {
		w := m.exec.Ops[cell.writer]
		if w.CPU != c {
			for _, e := range m.cpus[w.CPU].buf {
				if e.id < w.ID {
					m.exec.StaleReads++
					if m.exec.FirstStaleObservation < 0 {
						m.exec.FirstStaleObservation = id
					}
					break
				}
			}
		}
	}
	return cell.val
}

// maybeSyncSeq allocates a sync sequence number for sync operations.
func (m *machine) maybeSyncSeq(kind OpKind, loc program.Addr) int {
	if kind.IsSync() {
		return m.nextSyncSeq(loc)
	}
	return -1
}

// writeShared performs a write by processor c, buffering it when the model
// allows and the operation is a data write.
func (m *machine) writeShared(c int, pc int, kind OpKind, loc program.Addr, val int64) {
	if kind == OpDataWrite && m.cfg.Model.BuffersData() {
		if len(m.cpus[c].buf) >= m.cfg.BufferCap {
			// Stall until the memory system frees a buffer slot.
			m.cycles[c] += m.cfg.MemLatency
			m.stalls++
			m.retireOne(c)
		}
		id := m.record(MemOp{
			CPU: c, PC: pc, Kind: kind, Loc: loc, Value: val,
			ObservedWrite: -1, SyncSeq: -1,
			Step: m.step, CommitStep: -1, // set at retirement
		})
		m.cpus[c].buf = append(m.cpus[c].buf, bufEntry{loc: loc, val: val, id: id})
		return
	}
	// Direct write: first flush own older writes to the same location so
	// per-location program order (coherence) is preserved, then stall
	// until the write is globally visible.
	for _, e := range m.cpus[c].buf {
		if e.loc == loc {
			m.cycles[c] += m.cfg.MemLatency
			m.stalls++
		}
	}
	m.cycles[c] += m.cfg.MemLatency
	m.stalls++
	m.retireLoc(c, loc)
	id := m.record(MemOp{
		CPU: c, PC: pc, Kind: kind, Loc: loc, Value: val,
		ObservedWrite: -1, SyncSeq: m.maybeSyncSeq(kind, loc),
		Step: m.step, CommitStep: m.step,
	})
	m.commit(loc, val, id)
}

// maybeDrain drains processor c's buffer when the model requires it before
// an operation with the given role.
func (m *machine) maybeDrain(c int, role memmodel.Role) {
	if m.cfg.Model.DrainsBefore(role) {
		// Stall until every pending write is globally visible. Writes the
		// scheduler already retired in the background cost nothing here —
		// that overlap is the weak models' performance advantage.
		m.cycles[c] += m.cfg.MemLatency * int64(len(m.cpus[c].buf))
		m.stalls += int64(len(m.cpus[c].buf))
		m.drains++
		m.drain(c)
	}
}

func (m *machine) evalAddr(c int, a program.AddrExpr) (program.Addr, bool) {
	loc := a.Base
	if a.Indexed {
		loc += program.Addr(m.cpus[c].regs[a.Index])
	}
	if loc < 0 || int(loc) >= m.prog.NumLocations {
		m.err = fmt.Errorf("P%d pc %d: effective address %d out of range [0,%d)",
			c+1, m.cpus[c].pc, loc, m.prog.NumLocations)
		return 0, false
	}
	return loc, true
}

func (m *machine) evalVal(c int, v program.ValExpr) int64 {
	if v.IsReg {
		return m.cpus[c].regs[v.Reg]
	}
	return v.Imm
}

// execInstr executes one instruction on processor c.
func (m *machine) execInstr(c int) {
	cpu := &m.cpus[c]
	instrs := m.prog.Threads[c].Instrs
	if cpu.pc >= len(instrs) {
		cpu.halted = true
		return
	}
	m.cycles[c]++ // instruction issue
	in := instrs[cpu.pc]
	next := cpu.pc + 1
	switch in.Op {
	case program.OpNop:
	case program.OpHalt:
		cpu.halted = true
		return
	case program.OpRead:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		cpu.regs[in.Dst] = m.readShared(c, cpu.pc, OpDataRead, loc)
	case program.OpWrite:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		m.writeShared(c, cpu.pc, OpDataWrite, loc, m.evalVal(c, in.Val))
	case program.OpSyncRead:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		m.maybeDrain(c, memmodel.RoleAcquire)
		cpu.regs[in.Dst] = m.readShared(c, cpu.pc, OpAcquireRead, loc)
	case program.OpSyncWrite:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		m.maybeDrain(c, memmodel.RoleRelease)
		m.writeShared(c, cpu.pc, OpReleaseWrite, loc, m.evalVal(c, in.Val))
	case program.OpUnset:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		m.maybeDrain(c, memmodel.RoleRelease)
		m.writeShared(c, cpu.pc, OpReleaseWrite, loc, 0)
	case program.OpTestAndSet:
		loc, ok := m.evalAddr(c, in.Addr)
		if !ok {
			return
		}
		m.maybeDrain(c, memmodel.RoleAcquire)
		// Atomic read-modify-write: both halves execute at this step with
		// no intervening operation. The read is an acquire; the write is a
		// synchronization operation but not a release (§2.1).
		cpu.regs[in.Dst] = m.readShared(c, cpu.pc, OpAcquireRead, loc)
		m.maybeDrain(c, memmodel.RoleSyncOther)
		m.writeShared(c, cpu.pc, OpSyncWriteOther, loc, 1)
	case program.OpFence:
		m.maybeDrain(c, memmodel.RoleFence)
	case program.OpConst:
		cpu.regs[in.Dst] = in.Imm
	case program.OpMov:
		cpu.regs[in.Dst] = cpu.regs[in.Src]
	case program.OpAdd:
		cpu.regs[in.Dst] = cpu.regs[in.Src] + cpu.regs[in.Src2]
	case program.OpSub:
		cpu.regs[in.Dst] = cpu.regs[in.Src] - cpu.regs[in.Src2]
	case program.OpAddImm:
		cpu.regs[in.Dst] = cpu.regs[in.Src] + in.Imm
	case program.OpBranchZero:
		if cpu.regs[in.Src] == 0 {
			next = in.Target
		}
	case program.OpBranchNotZero:
		if cpu.regs[in.Src] != 0 {
			next = in.Target
		}
	case program.OpBranchLess:
		if cpu.regs[in.Src] < cpu.regs[in.Src2] {
			next = in.Target
		}
	case program.OpJump:
		next = in.Target
	default:
		m.err = fmt.Errorf("P%d pc %d: unknown opcode %v", c+1, cpu.pc, in.Op)
		return
	}
	cpu.pc = next
	if cpu.pc >= len(instrs) {
		cpu.halted = true
	}
}
