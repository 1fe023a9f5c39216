package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"slidb/internal/recovery"
	"slidb/internal/wal"
)

// writeLog lays recs down as a real segment directory at dir, through the
// same log and segment sink a durable engine uses.
func writeLog(t *testing.T, dir string, recs ...wal.Record) {
	t.Helper()
	segs, err := wal.OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New(wal.Config{Durable: segs})
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := segs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFormatMismatch checks that data an earlier sharded-log build
// wrote fails loudly with wal.ErrLogFormat instead of being misread: its
// shard-NN segment directories (which hold every record, leaving no segment
// in the root — opening the root as a flat log would start an empty one),
// its version-3 checkpoint, and its cross-shard commit records, whose After
// image carries the participant mask.
func TestShardedFormatMismatch(t *testing.T) {
	commit := func(xid uint64, after []byte) []wal.Record {
		return []wal.Record{
			{XID: xid, Type: wal.RecBegin},
			{XID: xid, Type: wal.RecCommit, After: after},
		}
	}

	t.Run("shard-dirs", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, filepath.Join(dir, "shard-00"), commit(1, nil)...)
		writeLog(t, filepath.Join(dir, "shard-01"), commit(1, nil)...)
		if _, err := wal.OpenSegments(dir, 0, false); !errors.Is(err, wal.ErrLogFormat) {
			t.Fatalf("OpenSegments: err = %v, want ErrLogFormat", err)
		}
		if _, err := OpenAt(dir, Config{}); !errors.Is(err, wal.ErrLogFormat) {
			t.Fatalf("OpenAt: err = %v, want ErrLogFormat", err)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 0 {
			t.Fatalf("failed open left root segments %v", segs)
		}
	})

	t.Run("v3-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		// Version 3: a two-shard boundary vector, then the version-2
		// payload (LSN, NextXID, no tables, no indexes).
		var payload []byte
		for _, v := range []uint64{2, 1, 1, 1, 1, 0, 0} {
			payload = binary.AppendUvarint(payload, v)
		}
		file := []byte("SLDBCKP3")
		file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
		file = append(file, payload...)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(filepath.Join(dir, recovery.CheckpointFile), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := recovery.ReadCheckpoint(dir); !errors.Is(err, wal.ErrLogFormat) {
			t.Fatalf("ReadCheckpoint: err = %v, want ErrLogFormat", err)
		}
		if _, err := OpenAt(dir, Config{}); !errors.Is(err, wal.ErrLogFormat) {
			t.Fatalf("OpenAt: err = %v, want ErrLogFormat", err)
		}
	})

	t.Run("masked-commit", func(t *testing.T) {
		// Control: the same flat log with a plain commit record opens.
		plain := t.TempDir()
		writeLog(t, plain, commit(1, nil)...)
		e, err := OpenAt(plain, Config{})
		if err != nil {
			t.Fatalf("plain commit: %v", err)
		}
		if got := e.RecoveryStats().Winners; got != 1 {
			t.Fatalf("plain commit: %d winners, want 1", got)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		masked := t.TempDir()
		mask := binary.LittleEndian.AppendUint64(nil, 0b11)
		writeLog(t, masked, commit(1, mask)...)
		if _, err := OpenAt(masked, Config{}); !errors.Is(err, wal.ErrLogFormat) {
			t.Fatalf("masked commit: err = %v, want ErrLogFormat", err)
		}
	})
}
