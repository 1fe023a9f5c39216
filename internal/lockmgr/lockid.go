package lockmgr

import "fmt"

// Level identifies the position of a lockable object in the lock hierarchy.
// Lower numeric values are higher (coarser) in the hierarchy.
type Level uint8

// The four levels of the lock hierarchy, mirroring Shore-MT's
// volume → store → page → record granularities.
const (
	// LevelDatabase is the root of the hierarchy (a Shore "volume").
	LevelDatabase Level = iota
	// LevelTable covers one table or index (a Shore "store").
	LevelTable
	// LevelPage covers one data page of a table.
	LevelPage
	// LevelRecord covers a single record (row).
	LevelRecord
)

var levelNames = [...]string{"database", "table", "page", "record"}

// String returns the human-readable name of the level.
func (l Level) String() string {
	if int(l) >= len(levelNames) {
		return fmt.Sprintf("level(%d)", uint8(l))
	}
	return levelNames[l]
}

// CoarserOrEqual reports whether l is at or above (coarser than) other in
// the hierarchy. SLI's first eligibility criterion is
// l.CoarserOrEqual(LevelPage): "the lock is page-level or higher".
func (l Level) CoarserOrEqual(other Level) bool { return l <= other }

// LockID names a lockable object. It is a value type usable as a map key.
// Unused components (e.g. Page and Slot for a table-level lock) must be
// zero so that equal objects compare equal.
type LockID struct {
	// Lvl is the object's level in the hierarchy.
	Lvl Level
	// DB identifies the database (volume). The engine currently uses a
	// single database with ID 1.
	DB uint32
	// Table identifies the table or index within the database.
	Table uint32
	// Page identifies the page within the table.
	Page uint64
	// Slot identifies the record within the page.
	Slot uint32
}

// DatabaseLock returns the LockID of a whole database.
func DatabaseLock(db uint32) LockID {
	return LockID{Lvl: LevelDatabase, DB: db}
}

// TableLock returns the LockID of a table within a database.
func TableLock(db, table uint32) LockID {
	return LockID{Lvl: LevelTable, DB: db, Table: table}
}

// PageLock returns the LockID of a page of a table.
func PageLock(db, table uint32, page uint64) LockID {
	return LockID{Lvl: LevelPage, DB: db, Table: table, Page: page}
}

// RecordLock returns the LockID of a single record.
func RecordLock(db, table uint32, page uint64, slot uint32) LockID {
	return LockID{Lvl: LevelRecord, DB: db, Table: table, Page: page, Slot: slot}
}

// Parent returns the LockID of the object's parent in the hierarchy and
// true, or the zero LockID and false if the object is the hierarchy root.
func (id LockID) Parent() (LockID, bool) {
	switch id.Lvl {
	case LevelDatabase:
		return LockID{}, false
	case LevelTable:
		return DatabaseLock(id.DB), true
	case LevelPage:
		return TableLock(id.DB, id.Table), true
	case LevelRecord:
		return PageLock(id.DB, id.Table, id.Page), true
	default:
		return LockID{}, false
	}
}

// Level returns the object's level in the hierarchy.
func (id LockID) Level() Level { return id.Lvl }

// String renders the LockID in a compact debugging form.
func (id LockID) String() string {
	switch id.Lvl {
	case LevelDatabase:
		return fmt.Sprintf("db(%d)", id.DB)
	case LevelTable:
		return fmt.Sprintf("tbl(%d.%d)", id.DB, id.Table)
	case LevelPage:
		return fmt.Sprintf("pg(%d.%d.%d)", id.DB, id.Table, id.Page)
	case LevelRecord:
		return fmt.Sprintf("rec(%d.%d.%d.%d)", id.DB, id.Table, id.Page, id.Slot)
	default:
		return fmt.Sprintf("lock(%d:%d.%d.%d.%d)", id.Lvl, id.DB, id.Table, id.Page, id.Slot)
	}
}

// hash returns a well-distributed 64-bit hash of the LockID: three
// multiply-xorshift rounds over its words (splitmix64's constants). Lock
// computes it once per request, for the owner's lock cache, the lock-table
// partition (low bits) and the slot within it (the bits above them).
func (id LockID) hash() uint64 {
	h := (uint64(id.Lvl)<<32 | uint64(id.DB)) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32 ^ (uint64(id.Table)<<32 | uint64(id.Slot))) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>29 ^ id.Page) * 0x94D049BB133111EB
	return h ^ h>>32
}
