package lockmgr

import "testing"

// TestSnapshotFieldOrder holds StatsSnapshot.counters to the order of the
// counter constants: every directly counted event must land in its own field.
func TestSnapshotFieldOrder(t *testing.T) {
	var s Stats
	sh := s.newShard()
	for c := counter(0); c < ctrAcquire; c++ {
		sh.c[c].Add(uint64(c) + 1)
	}
	sh.classify(PageLock(1, 1, 1), IS, true, true)
	sh.classify(RecordLock(1, 1, 1, 1), X, false, false)
	got := s.Snapshot()
	want := StatsSnapshot{
		CacheHits: uint64(ctrCacheHits) + 1, Conversions: uint64(ctrConversions) + 1,
		LatchContended: uint64(ctrLatchContended) + 1, Waits: uint64(ctrWaits) + 1,
		Deadlocks: uint64(ctrDeadlocks) + 1, Timeouts: uint64(ctrTimeouts) + 1,
		SLIPassed: uint64(ctrSLIPassed) + 1, SLIInvalidated: uint64(ctrSLIInvalidated) + 1,
		SLIDiscarded: uint64(ctrSLIDiscarded) + 1, SLIIneligibleWaiter: uint64(ctrSLIIneligibleWaiter) + 1,
		SLIIneligibleMode: uint64(ctrSLIIneligibleMode) + 1, SLIIneligibleParent: uint64(ctrSLIIneligibleParent) + 1,
		ELRReleases: uint64(ctrELRReleases) + 1, Transactions: uint64(ctrTransactions) + 1,
		AcquiresByLevel: [4]uint64{LevelPage: 1, LevelRecord: 1},
		SLIReclaimed:    1, SharedAcquires: 1, ExclusiveAcquires: 1, HotHeritable: 1, ColdOther: 1,
	}
	if got != want {
		t.Fatalf("snapshot = %+v\nwant       %+v", got, want)
	}
	if d := got.Diff(StatsSnapshot{Waits: 1, Timeouts: 100}); d.Waits != want.Waits-1 || d.Timeouts != 0 || d.CacheHits != want.CacheHits {
		t.Fatalf("Diff = %+v", d)
	}
}
