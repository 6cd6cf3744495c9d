// Package memmodel encodes the five memory consistency models the paper
// discusses — sequential consistency (SC), weak ordering (WO), release
// consistency with sequentially consistent synchronization (RCsc), and the
// data-race-free models DRF0 and DRF1 — as data the simulator and detector
// consume.
//
// The models differ along two axes the paper identifies (§2.2):
//
//  1. whether data operations may be buffered and completed out of order
//     between synchronization points (all weak models: yes; SC: no), and
//  2. whether the hardware distinguishes acquire from release
//     synchronization (RCsc and DRF1: yes; WO and DRF0: no).
//
// DRF0 and DRF1 are *specifications* (sets of hardware), not concrete
// designs; we implement their canonical proposed implementations, which
// coincide with WO-style and RCsc-style hardware respectively. This is
// faithful to the paper, which treats "all proposed implementations of DRF0
// and DRF1" exactly this way (Theorem 3.5).
package memmodel

import "fmt"

// Model identifies a memory consistency model.
type Model int

const (
	// SC is sequential consistency [Lam79]: every memory operation
	// completes, globally, in program order.
	SC Model = iota
	// WO is weak ordering [DSB86]: data operations may be reordered between
	// synchronization operations; every synchronization operation waits for
	// all prior operations and blocks all later ones.
	WO
	// RCsc is release consistency with sequentially consistent
	// synchronization [GLL90]: releases wait for prior operations;
	// acquires block later operations; synchronization operations are
	// sequentially consistent among themselves.
	RCsc
	// DRF0 is data-race-free-0 [AdH90]; its proposed implementation
	// behaves like WO (no acquire/release distinction).
	DRF0
	// DRF1 is data-race-free-1 [AdH91]; its proposed implementation
	// behaves like RCsc (distinguishes acquire and release).
	DRF1
	// TSO is total store order (x86-style), included as an extension
	// beyond the paper's four weak models: a FIFO store buffer with
	// forwarding. Reads may bypass the processor's own buffered stores
	// (the SB relaxation), but stores commit in program order, so the
	// message-passing reordering — and with it the paper's Figure 2
	// anomaly — cannot occur.
	TSO
)

// All lists every model: the paper's five in the order it introduces
// them, then the TSO extension.
var All = []Model{SC, WO, RCsc, DRF0, DRF1, TSO}

var modelNames = map[Model]string{
	SC: "SC", WO: "WO", RCsc: "RCsc", DRF0: "DRF0", DRF1: "DRF1", TSO: "TSO",
}

// String returns the paper's abbreviation for the model.
func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Parse converts a model name (as printed by String, case-sensitive)
// back to a Model.
func Parse(s string) (Model, error) {
	for m, name := range modelNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("memmodel: unknown model %q (want SC, WO, RCsc, DRF0, DRF1 or TSO)", s)
}

// Weak reports whether the model is one of the four weak models (i.e. not
// SC). The paper calls these collectively "the weak systems".
func (m Model) Weak() bool { return m != SC }

// Role classifies a dynamic memory operation for ordering purposes.
type Role uint8

const (
	// RoleData is an ordinary data read or write.
	RoleData Role = iota
	// RoleAcquire is a synchronization read used to conclude completion of
	// another processor's prior operations (Test&Set's read, SyncRead).
	RoleAcquire
	// RoleRelease is a synchronization write used to communicate completion
	// of the issuing processor's prior operations (Unset, SyncWrite).
	RoleRelease
	// RoleSyncOther is a synchronization operation that is neither an
	// acquire nor a release under the paper's classification — the write
	// half of a Test&Set (§2.1: "the write due to a Test&Set is not a
	// release since it is not meant to be used to communicate the
	// completion of previous memory operations").
	RoleSyncOther
	// RoleFence is an explicit fence (no memory access).
	RoleFence
)

var roleNames = map[Role]string{
	RoleData: "data", RoleAcquire: "acquire", RoleRelease: "release",
	RoleSyncOther: "sync", RoleFence: "fence",
}

// String returns a short name for the role.
func (r Role) String() string {
	if s, ok := roleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// IsSync reports whether the role denotes a hardware-recognized
// synchronization operation.
func (r Role) IsSync() bool {
	return r == RoleAcquire || r == RoleRelease || r == RoleSyncOther
}

// BuffersData reports whether data writes may be held in a processor-local
// store buffer. Only SC forbids this.
func (m Model) BuffersData() bool { return m != SC }

// FIFOStoreBuffer reports whether the store buffer retires in strict
// program order (TSO). The paper's four weak models retire out of order
// between synchronization points.
func (m Model) FIFOStoreBuffer() bool { return m == TSO }

// AllowsStoreReordering reports whether two stores by one processor to
// different locations may become visible out of program order — the
// relaxation behind the paper's Figure 1a/2b anomalies. True for the
// paper's four weak models; false for SC and TSO.
func (m Model) AllowsStoreReordering() bool { return m.Weak() && !m.FIFOStoreBuffer() }

// DrainsBefore reports whether an operation with the given role must wait
// for the processor's store buffer to drain (all prior data writes become
// globally visible) before it executes.
//
//   - SC never buffers, so draining is vacuous.
//   - WO and DRF0 drain at every synchronization operation and fence.
//   - RCsc and DRF1 drain at releases and fences only; acquires need not
//     wait for prior data operations (that is the models' extra
//     performance over WO).
//   - TSO drains at releases, Test&Set writes (locked operations flush),
//     and fences; plain acquire reads need not wait. With the FIFO buffer
//     this keeps all stores, sync or data, in program order.
func (m Model) DrainsBefore(r Role) bool {
	switch m {
	case SC:
		return false
	case WO, DRF0:
		return r.IsSync() || r == RoleFence
	case RCsc, DRF1:
		return r == RoleRelease || r == RoleFence
	case TSO:
		return r == RoleRelease || r == RoleSyncOther || r == RoleFence
	}
	return false
}

// BlocksAfter reports whether later operations of the same processor must
// wait for an operation with this role to complete before issuing. In the
// simulator's in-order pipeline every instruction issues in order, so this
// is informational, but it documents each model's constraint and is used by
// the report package.
func (m Model) BlocksAfter(r Role) bool {
	switch m {
	case SC:
		return true
	case WO, DRF0:
		return r.IsSync() || r == RoleFence
	case RCsc, DRF1, TSO:
		return r == RoleAcquire || r == RoleFence
	}
	return false
}

// DistinguishesAcquireRelease reports whether the model's hardware rules
// treat acquires and releases differently (§2.2).
func (m Model) DistinguishesAcquireRelease() bool {
	return m == RCsc || m == DRF1
}

// PairingPolicy controls which synchronization writes may pair with which
// synchronization reads when constructing so1 (Definition 2.1/2.2).
type PairingPolicy int

const (
	// ConservativePairing is the paper's classification: only releases
	// (Unset, SyncWrite) pair with acquires (Test&Set read, SyncRead); a
	// Test&Set's write never pairs. This is the default everywhere.
	ConservativePairing PairingPolicy = iota
	// LiberalPairing additionally lets a Test&Set's write pair with a later
	// acquire. On WO/DRF0-style hardware every synchronization operation
	// drains the store buffer, so the Test&Set write does in fact
	// communicate completion; treating it as a release is sound there and
	// yields fewer (never more) reported races.
	LiberalPairing
)

// String names the pairing policy.
func (p PairingPolicy) String() string {
	if p == LiberalPairing {
		return "liberal"
	}
	return "conservative"
}

// CanPair reports whether a synchronization write with role w may pair, as
// the release side, with an acquire, under this policy.
func (p PairingPolicy) CanPair(w Role) bool {
	switch w {
	case RoleRelease:
		return true
	case RoleSyncOther:
		return p == LiberalPairing
	}
	return false
}

// Properties summarizes a model's ordering rules in display form, used by
// documentation surfaces (wrlitmus -models).
type Properties struct {
	Model               Model
	BuffersData         bool
	DrainsAtAcquire     bool
	DrainsAtRelease     bool
	DistinguishesAcqRel bool
	GuaranteesSCForDRF  bool // all five models guarantee SC to DRF programs
	GuaranteesSCForAll  bool // only SC does
}

// Describe returns the model's property summary.
func Describe(m Model) Properties {
	return Properties{
		Model:               m,
		BuffersData:         m.BuffersData(),
		DrainsAtAcquire:     m.DrainsBefore(RoleAcquire),
		DrainsAtRelease:     m.DrainsBefore(RoleRelease),
		DistinguishesAcqRel: m.DistinguishesAcquireRelease(),
		GuaranteesSCForDRF:  true,
		GuaranteesSCForAll:  m == SC,
	}
}

// DefaultPairing returns the pairing policy justified by the model's
// hardware rules: liberal for models where every synchronization operation
// drains the buffer (WO, DRF0), conservative otherwise. The detector still
// defaults to ConservativePairing — the paper's choice — unless the caller
// opts in.
func (m Model) DefaultPairing() PairingPolicy {
	if m == WO || m == DRF0 || m == TSO {
		// Every synchronization write on these models drains (or, on TSO,
		// FIFO-follows) the buffer, so a Test&Set write does communicate
		// completion.
		return LiberalPairing
	}
	return ConservativePairing
}
