// Package lockmgr implements a hierarchical database lock manager in the
// style of Shore-MT (Johnson et al., EDBT'09), together with the paper's
// primary contribution: Speculative Lock Inheritance (SLI), which passes hot
// share-mode locks directly from a committing transaction to the next
// transaction on the same agent thread, bypassing the centralized lock
// manager (Johnson, Pandis & Ailamaki, VLDB'09).
//
// The lock manager provides:
//
//   - Gray/Reuter hierarchical lock modes (NL, IS, IX, S, SIX, U, X) and a
//     four-level hierarchy, database → table → page → record; requesting a
//     lock acquires the intention locks on all ancestors automatically.
//   - A partitioned hash lock table of lock heads, each holding a latch and a
//     FIFO queue of requests (granted, converting, waiting, inherited). Heads
//     persist when their queue drains and are found with a lock-free probe;
//     a per-partition sweep retires idle ones.
//   - Lock conversions (upgrades), FIFO granting, wait-for-graph deadlock
//     detection with a timeout fallback.
//   - Per-lock hot-ness tracking based on latch contention (§4.2 criterion
//     2) and SLI itself: eligibility testing at release time, per-agent
//     inherited lists, latch-free inherit and reclaim, invalidation by
//     conflicting requests.
//
// Transactions use the lock manager through an Owner (one per transaction)
// and agent threads through an Agent (one per worker thread), mirroring
// Shore-MT's transaction and agent structures.
//
// On short transactions the lock manager is the cost, so a warm, uncontended
// acquire and release (lockFast, reclaim, inherit, release) allocates
// nothing, reads no clock unless the owner is profiled, and writes no memory
// another agent writes except the lock head itself. What a transaction's
// locking needs belongs to its Agent and is reused by the agent's next
// transaction: one Owner (with its held list and hash-indexed lock cache), a
// free list of Requests, and a shard of the event counters. Hence:
//
//   - An *Owner is valid from NewOwner until its ReleaseAll returns; after
//     that it is the agent's next transaction. Owner.id is the generation:
//     the deadlock detector records it with every wait-for edge and drops an
//     edge whose Owner has moved on.
//   - A *Request returns to its agent's free list only once unlinked from its
//     head's queue under the latch; only the owning agent, or a queue walker
//     holding the latch, may hold one.
//   - A lock head found without the partition mutex may have been retired by
//     a sweep: whoever latches it re-checks its dead flag.
package lockmgr

// Mode is a hierarchical lock mode as defined by Gray & Reuter,
// "Transaction Processing: Concepts and Techniques" (and paper §3.1).
type Mode uint8

// The lock modes, in increasing order of strength for the purposes of
// Supremum. NL (no lock) is the identity element.
const (
	// NL is "no lock": the absence of a lock. Compatible with everything.
	NL Mode = iota
	// IS (intention share) signals that the holder has S locks on some of
	// this object's children.
	IS
	// IX (intention exclusive) signals that the holder has X locks on some
	// of this object's children.
	IX
	// S (share) allows the holder to read this object and implicitly all of
	// its children.
	S
	// SIX combines S and IX: read the whole object, update some children.
	SIX
	// U (update) is an asymmetric read lock that can be upgraded to X
	// without deadlocking against other U holders; compatible with S.
	U
	// X (exclusive) allows the holder to read and update this object and all
	// of its children.
	X
	numModes
)

var modeNames = [numModes]string{"NL", "IS", "IX", "S", "SIX", "U", "X"}

// String returns the conventional two-letter name of the mode.
func (m Mode) String() string {
	if !m.Valid() {
		return "?"
	}
	return modeNames[m]
}

// Valid reports whether m is one of the defined lock modes.
func (m Mode) Valid() bool { return m < numModes }

// compatible[a][b] is true when a request for mode a can be granted while
// mode b is held by a different transaction. The matrix is symmetric except
// for U, which by construction is compatible with already-granted S but
// blocks new S requests in some textbook variants; we use the symmetric
// simplification (U compatible with S and IS) which is also what Shore uses.
var compatible = [numModes][numModes]bool{
	NL:  {NL: true, IS: true, IX: true, S: true, SIX: true, U: true, X: true},
	IS:  {NL: true, IS: true, IX: true, S: true, SIX: true, U: true, X: false},
	IX:  {NL: true, IS: true, IX: true, S: false, SIX: false, U: false, X: false},
	S:   {NL: true, IS: true, IX: false, S: true, SIX: false, U: true, X: false},
	SIX: {NL: true, IS: true, IX: false, S: false, SIX: false, U: false, X: false},
	U:   {NL: true, IS: true, IX: false, S: true, SIX: false, U: false, X: false},
	X:   {NL: true, IS: false, IX: false, S: false, SIX: false, U: false, X: false},
}

// Compatible reports whether a request for mode a is compatible with an
// existing grant of mode b.
func Compatible(a, b Mode) bool { return compatible[a][b] }

// supremum[a][b] is the least lock mode that covers both a and b, used when
// a transaction converts (upgrades) a lock it already holds.
var supremum = [numModes][numModes]Mode{
	NL:  {NL: NL, IS: IS, IX: IX, S: S, SIX: SIX, U: U, X: X},
	IS:  {NL: IS, IS: IS, IX: IX, S: S, SIX: SIX, U: U, X: X},
	IX:  {NL: IX, IS: IX, IX: IX, S: SIX, SIX: SIX, U: X, X: X},
	S:   {NL: S, IS: S, IX: SIX, S: S, SIX: SIX, U: U, X: X},
	SIX: {NL: SIX, IS: SIX, IX: SIX, S: SIX, SIX: SIX, U: X, X: X},
	U:   {NL: U, IS: U, IX: X, S: U, SIX: X, U: U, X: X},
	X:   {NL: X, IS: X, IX: X, S: X, SIX: X, U: X, X: X},
}

// Supremum returns the least upper bound of two lock modes.
func Supremum(a, b Mode) Mode { return supremum[a][b] }

// Covers reports whether holding mode held is at least as strong as needing
// mode want, i.e. no conversion is required.
func Covers(held, want Mode) bool { return Supremum(held, want) == held }

// parentMode[m] is the intention mode that must be held on an object's
// parent before m can be acquired on the object itself (paper §3.1/§3.2:
// "the manager first ensures the transaction holds higher-level intention
// locks, requesting them automatically if necessary").
var parentMode = [numModes]Mode{
	NL:  NL,
	IS:  IS,
	S:   IS,
	U:   IX, // a U lock may be upgraded to X, so announce write intent
	IX:  IX,
	SIX: IX,
	X:   IX,
}

// ParentMode returns the intention mode required on the parent of an object
// locked in mode m.
func ParentMode(m Mode) Mode { return parentMode[m] }

// Shared reports whether m is one of the "shared" modes that SLI may pass
// between transactions (paper §4.2 criterion 3: "held in a shared mode
// (e.g. S, IS, IX)"). IX qualifies because it is compatible with the other
// intent modes that scalable workloads request on hot, high-level locks.
func (m Mode) Shared() bool { return m == S || m == IS || m == IX }

// Exclusive reports whether m grants (or intends to escalate to) exclusive
// access to the whole object.
func (m Mode) Exclusive() bool { return m == X || m == SIX || m == U }
