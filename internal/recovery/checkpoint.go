package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"slidb/internal/catalog"
	"slidb/internal/wal"
)

// CheckpointFile is the name of the checkpoint inside a data directory.
const CheckpointFile = "checkpoint.db"

// checkpointMagic identifies (and versions) the checkpoint format. Version 2
// is the byte-offset LSN format: Snapshot.LSN is the durable watermark (an
// exclusive end offset) rather than a dense record counter.
var checkpointMagic = []byte("SLDBCKP2")

// foreignCheckpoints are the other versions earlier builds wrote, which this
// build cannot interpret: version 1 counted dense record numbers, and
// version 3 carried one watermark per log shard of a sharded log. Reading
// either fails with wal.ErrLogFormat instead of a misleading corruption
// error.
var foreignCheckpoints = map[string]string{
	"SLDBCKP1": "format version 1 (dense LSNs)",
	"SLDBCKP3": "format version 3 (sharded logs)",
}

// ErrBadCheckpoint is returned when a checkpoint file fails validation.
var ErrBadCheckpoint = errors.New("recovery: corrupt checkpoint")

// Snapshot is a point-in-time logical image of the database: the catalog
// plus every table's encoded rows, consistent as of LSN. Restart restores
// the snapshot and then replays only log records with LSN >= Snapshot.LSN,
// which is how checkpointing bounds recovery work.
type Snapshot struct {
	// LSN is the durable watermark the snapshot covers — the exclusive end
	// offset of the log prefix whose effects are reflected in the table
	// images, and therefore exactly the frame boundary replay resumes at.
	LSN wal.LSN
	// NextXID seeds the engine's transaction-ID allocator so XIDs stay
	// monotonic across restarts.
	NextXID uint64
	// Tables holds each table's metadata and rows, in catalog order.
	Tables []TableSnapshot
	// Indexes holds secondary-index metadata; index contents are rebuilt
	// from the table rows at restore time.
	Indexes []catalog.IndexMeta
}

// TableSnapshot is one table's schema and encoded rows.
type TableSnapshot struct {
	Meta catalog.TableMeta
	Rows [][]byte
}

// encode serializes the snapshot payload (everything after the magic).
func (s *Snapshot) encode() []byte {
	var buf []byte
	put := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	putBytes := func(b []byte) {
		put(uint64(len(b)))
		buf = append(buf, b...)
	}
	put(uint64(s.LSN))
	put(s.NextXID)
	put(uint64(len(s.Tables)))
	for _, t := range s.Tables {
		putBytes(t.Meta.Encode())
		put(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			putBytes(row)
		}
	}
	put(uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		putBytes(ix.Encode())
	}
	return buf
}

func decodeSnapshot(payload []byte) (*Snapshot, error) {
	pos := 0
	get := func() (uint64, error) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, ErrBadCheckpoint
		}
		pos += n
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		n, err := get()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(payload)-pos) {
			return nil, ErrBadCheckpoint
		}
		// Capped, so a caller's append cannot overwrite what follows.
		b := payload[pos : pos+int(n) : pos+int(n)]
		pos += int(n)
		return b, nil
	}
	s := &Snapshot{}
	lsn, err := get()
	if err != nil {
		return nil, err
	}
	s.LSN = wal.LSN(lsn)
	if s.NextXID, err = get(); err != nil {
		return nil, err
	}
	nTables, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTables; i++ {
		metaBytes, err := getBytes()
		if err != nil {
			return nil, err
		}
		meta, err := catalog.DecodeTableMeta(metaBytes)
		if err != nil {
			return nil, err
		}
		nRows, err := get()
		if err != nil {
			return nil, err
		}
		// Every row takes at least its length byte, which caps the
		// preallocation at the bytes left; rows alias the checked payload.
		t := TableSnapshot{Meta: meta, Rows: make([][]byte, 0, min(nRows, uint64(len(payload)-pos)))}
		for j := uint64(0); j < nRows; j++ {
			row, err := getBytes()
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
		s.Tables = append(s.Tables, t)
	}
	nIdx, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nIdx; i++ {
		metaBytes, err := getBytes()
		if err != nil {
			return nil, err
		}
		meta, err := catalog.DecodeIndexMeta(metaBytes)
		if err != nil {
			return nil, err
		}
		s.Indexes = append(s.Indexes, meta)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(payload)-pos)
	}
	return s, nil
}

// WriteCheckpoint atomically persists the snapshot into dir: the file is
// written to a temporary name, fsynced, renamed over CheckpointFile, and the
// directory is fsynced, so a crash at any point leaves either the old or the
// new checkpoint intact — never a torn one. A CRC over the payload guards
// against partial-page corruption on read.
func WriteCheckpoint(dir string, snap *Snapshot) error {
	payload := snap.encode()
	buf := make([]byte, 0, len(checkpointMagic)+len(payload)+12)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	tmp := filepath.Join(dir, CheckpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recovery: create checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("recovery: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("recovery: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recovery: close checkpoint: %w", err)
	}
	final := filepath.Join(dir, CheckpointFile)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recovery: install checkpoint: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("recovery: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("recovery: sync dir: %w", err)
	}
	return nil
}

// ReadCheckpoint loads the checkpoint from dir. The second result is false
// when no checkpoint exists (a fresh or never-checkpointed directory).
func ReadCheckpoint(dir string) (*Snapshot, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("recovery: read checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+12 {
		return nil, false, fmt.Errorf("%w: too short", ErrBadCheckpoint)
	}
	if magic := string(data[:len(checkpointMagic)]); magic != string(checkpointMagic) {
		if version, ok := foreignCheckpoints[magic]; ok {
			return nil, false, fmt.Errorf("%w: checkpoint is %s", wal.ErrLogFormat, version)
		}
		return nil, false, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	rest := data[len(checkpointMagic):]
	payloadLen := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	if uint64(len(rest)) != payloadLen+4 {
		return nil, false, fmt.Errorf("%w: length mismatch", ErrBadCheckpoint)
	}
	payload := rest[:payloadLen]
	sum := binary.LittleEndian.Uint32(rest[payloadLen:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, false, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return nil, false, err
	}
	return snap, true, nil
}
