// Package sim is a discrete-event multiprocessor simulator for the memory
// models of the paper: a seeded interleaving scheduler over per-processor
// instruction streams, with per-processor store buffers whose non-FIFO
// retirement produces exactly the reorderings the weak models permit.
//
// The simulator plays the role of the paper's (hypothetical, in 1991)
// weak-memory hardware. Its honest configurations satisfy the paper's
// Condition 3.4 by construction: a buffered reordering can only become
// visible through a conflicting, unsynchronized access — a data race — so
// every execution is sequentially consistent at least until its first data
// races. A deliberately Pathological configuration (value speculation)
// violates the condition, for the Theorem 3.5 ablation experiment.
package sim

import (
	"fmt"
	"strconv"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
)

// OpKind classifies a dynamic memory operation.
type OpKind int

const (
	// OpDataRead is an ordinary read.
	OpDataRead OpKind = iota
	// OpDataWrite is an ordinary write.
	OpDataWrite
	// OpAcquireRead is a synchronization read: the read half of a Test&Set
	// or an explicit SyncRead.
	OpAcquireRead
	// OpReleaseWrite is a synchronization write that is a release: Unset or
	// an explicit SyncWrite.
	OpReleaseWrite
	// OpSyncWriteOther is the write half of a Test&Set: a synchronization
	// operation, but not a release (paper §2.1).
	OpSyncWriteOther
)

var opKindNames = map[OpKind]string{
	OpDataRead: "read", OpDataWrite: "write", OpAcquireRead: "sync-read",
	OpReleaseWrite: "release", OpSyncWriteOther: "sync-write",
}

// String returns a short name for the kind.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsRead reports whether the operation reads memory.
func (k OpKind) IsRead() bool { return k == OpDataRead || k == OpAcquireRead }

// IsWrite reports whether the operation writes memory.
func (k OpKind) IsWrite() bool {
	return k == OpDataWrite || k == OpReleaseWrite || k == OpSyncWriteOther
}

// IsSync reports whether the operation is recognized as synchronization.
func (k OpKind) IsSync() bool { return k != OpDataRead && k != OpDataWrite }

// Role maps the kind to its memmodel ordering role.
func (k OpKind) Role() memmodel.Role {
	switch k {
	case OpAcquireRead:
		return memmodel.RoleAcquire
	case OpReleaseWrite:
		return memmodel.RoleRelease
	case OpSyncWriteOther:
		return memmodel.RoleSyncOther
	default:
		return memmodel.RoleData
	}
}

// InitialWrite is the ObservedWrite value for reads that observed a
// location's initial contents rather than any dynamic write.
const InitialWrite = -1

// MemOp is one dynamic memory operation of an execution.
type MemOp struct {
	// ID is the operation's index in Execution.Ops (global issue order).
	ID int
	// CPU is the issuing processor.
	CPU int
	// PC is the program counter of the instruction that issued the
	// operation; together with CPU it identifies the *static* operation,
	// which is how the paper identifies operations ("the part of the
	// program in which it is specified", §2.1).
	PC int
	// Kind classifies the operation.
	Kind OpKind
	// Loc is the shared location accessed.
	Loc program.Addr
	// Value is the value read (for reads) or written (for writes).
	Value int64
	// ObservedWrite is, for reads, the ID of the write whose value was
	// returned, or InitialWrite. For writes it is unused (-1).
	ObservedWrite int
	// SyncSeq is, for synchronization operations, the operation's position
	// in the global order of synchronization operations on Loc (0-based);
	// -1 for data operations. This is the "relative execution order of
	// synchronization operations involving the same location" the paper's
	// instrumentation records (§4.1).
	SyncSeq int
	// Step is the scheduler step at which the operation issued.
	Step int
	// CommitStep is the step at which the operation became globally
	// visible: the retirement step for buffered writes, otherwise Step.
	CommitStep int
	// Speculative marks reads corrupted by the Pathological configuration.
	Speculative bool
}

// String renders the op compactly, e.g. "P2 read(5)=37" or "P1 release(7)=0".
func (op MemOp) String() string {
	return fmt.Sprintf("P%d %s(%d)=%d", op.CPU+1, op.Kind, op.Loc, op.Value)
}

// Static returns the static identity of the operation: processor and
// program counter. Races are matched across executions by static identity,
// because the paper defines an operation by its program point and location,
// never by the value it read or wrote.
func (op MemOp) Static() StaticOp {
	return StaticOp{CPU: op.CPU, PC: op.PC, Loc: op.Loc}
}

// StaticOp identifies a memory operation by program point and location.
type StaticOp struct {
	CPU int
	PC  int
	Loc program.Addr
}

// String renders the static identity.
func (s StaticOp) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the static identity as String renders it: Pc@pc[loc].
func (s StaticOp) AppendTo(b []byte) []byte {
	b = append(b, 'P')
	b = strconv.AppendInt(b, int64(s.CPU+1), 10)
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(s.PC), 10)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(s.Loc), 10)
	return append(b, ']')
}

// Execution is the complete, value-annotated record of one simulated run.
// It is the ground truth the SCP machinery analyzes; the detector itself
// sees only the trace derived from it.
type Execution struct {
	ProgramName  string
	Model        memmodel.Model
	Seed         int64
	NumCPUs      int
	NumLocations int

	// InitMemory is the initial contents of shared memory (length
	// NumLocations). The SC verifier needs it to replay reads-from.
	InitMemory []int64

	// Ops holds every memory operation, indexed by ID (global issue order).
	Ops []MemOp
	// PerCPU[c] lists the op IDs of processor c in program order.
	PerCPU [][]int

	// FirstStaleObservation is the ID of the first read that directly
	// witnessed a store-buffer reordering: it observed a write w by another
	// processor while that processor still had a write older than w (in its
	// program order) sitting in its buffer. Such a read always races with w
	// (any intervening release would have drained the buffer), so a stale
	// observation certifies both a data race and the spot where sequential
	// consistency first became observable — the "End of SCP" marker in the
	// paper's Figure 2b. -1 if no read witnessed a reordering. The witness
	// is conservative in the other direction too: some executions with a
	// stale observation are still sequentially consistent; internal/scp
	// decides exactly.
	FirstStaleObservation int

	// StaleReads counts reads that witnessed a reordering as above.
	StaleReads int
	// ForwardedReads counts reads satisfied from the issuing processor's
	// own store buffer (store-to-load forwarding).
	ForwardedReads int
	// BypassReads counts reads that read shared memory while the issuing
	// processor's own store buffer held older writes to other locations
	// (the store-buffer relaxation that enables the SB litmus outcome).
	BypassReads int
	// SpeculativeReads counts reads corrupted by the Pathological mode.
	SpeculativeReads int
}

// OpsOf returns processor c's operations in program order.
func (e *Execution) OpsOf(c int) []MemOp {
	ids := e.PerCPU[c]
	out := make([]MemOp, len(ids))
	for i, id := range ids {
		out[i] = e.Ops[id]
	}
	return out
}

// NumOps returns the total number of memory operations.
func (e *Execution) NumOps() int { return len(e.Ops) }

// DefinitelySC reports whether the execution is certainly sequentially
// consistent by a conservative sufficient condition: no read ever
// interacted with a non-empty store buffer (no forwarding, no bypassing,
// no stale observation) and no read was speculative — so every read saw
// the latest globally committed value with all reorderings unobserved.
// Executions for which this returns false may still be sequentially
// consistent; internal/scp performs the exact check.
func (e *Execution) DefinitelySC() bool {
	return e.StaleReads == 0 && e.ForwardedReads == 0 && e.BypassReads == 0 &&
		e.SpeculativeReads == 0
}
