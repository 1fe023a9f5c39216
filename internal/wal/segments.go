package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// DefaultSegmentBytes is the rotation threshold for on-disk log segments.
const DefaultSegmentBytes = 4 << 20

// segPrefix/segSuffix frame segment file names: wal-<first offset, hex>.seg.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// Segment header layout (format version 2, the byte-offset LSN format):
//
//	bytes 0..6   magic "SLDBSEG"
//	byte  7      format version (segVersion)
//	bytes 8..15  first virtual offset covered by the file, little-endian
//
// Version 1 was the headerless dense-LSN format (every frame embedded its
// LSN); its files start with a frame length prefix instead of the magic, so
// opening a pre-upgrade directory fails loudly with ErrLogFormat rather than
// silently truncating what would scan as a torn tail.
const (
	segMagic      = "SLDBSEG"
	segVersion    = byte(2)
	segHeaderSize = 16
)

// ErrLogFormat is returned when a data directory's log segments (or its
// checkpoint) were written in a different, incompatible format version —
// typically a directory created before the byte-offset LSN refactor. The
// data is not corrupt; it is simply not readable by this version, and
// failing loudly beats misreading record addresses.
var ErrLogFormat = errors.New("wal: incompatible log format version (data directory written by a different slidb version)")

func segmentName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}

func parseSegmentName(name string) (LSN, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return LSN(v), true
}

// isShardDir reports whether name is a shard-NN directory, the per-shard
// segment directory of the sharded log layout older builds wrote. Such a
// directory keeps its segments out of the root, so opening it as a flat log
// would silently start an empty one.
func isShardDir(name string) bool {
	rest, ok := strings.CutPrefix(name, "shard-")
	if !ok {
		return false
	}
	_, err := strconv.ParseUint(rest, 10, 64)
	return err == nil
}

// segmentInfo describes one on-disk segment file.
type segmentInfo struct {
	path  string
	first LSN // virtual offset of the segment's first payload byte
}

// encodeHeader returns the 16-byte segment header for a file whose payload
// begins at virtual offset first.
func encodeHeader(first LSN) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	h[len(segMagic)] = segVersion
	binary.LittleEndian.PutUint64(h[8:], uint64(first))
	return h
}

// readHeader validates a segment file's header against its name. A short
// header is reported as errShortHeader so the caller can distinguish a torn
// creation (repairable on the last segment) from a wrong-format file.
var errShortHeader = errors.New("wal: short segment header")

func readHeader(f io.Reader, name string, want LSN) error {
	h := make([]byte, segHeaderSize)
	n, err := io.ReadFull(f, h)
	if err != nil {
		// Even a partial header must look like the start of our magic;
		// anything else is another format (e.g. a v1 frame stream).
		if n > 0 && !strings.HasPrefix(segMagic, string(h[:min(n, len(segMagic))])) {
			return fmt.Errorf("%w: segment %s has no segment header", ErrLogFormat, name)
		}
		return errShortHeader
	}
	if string(h[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%w: segment %s has no segment header", ErrLogFormat, name)
	}
	if v := h[len(segMagic)]; v != segVersion {
		return fmt.Errorf("%w: segment %s is format version %d, this build reads version %d", ErrLogFormat, name, v, segVersion)
	}
	if got := LSN(binary.LittleEndian.Uint64(h[8:])); got != want {
		return fmt.Errorf("wal: segment %s header offset %d does not match its name (%d): %w", name, got, want, ErrCorrupt)
	}
	return nil
}

// Segments is a directory of append-only write-ahead log segment files. It
// implements DurableSink: bytes of the virtual log are appended to the
// current segment, a new segment is started once the current one exceeds the
// configured size, and Sync (called once per group-commit batch by the Log)
// forces the current segment to stable storage.
//
// Because LSNs are byte offsets, a segment file IS a slice of the virtual
// log: the file named wal-<first> holds bytes [first, first+payload) and the
// record at LSN L lives in that file at position segHeaderSize + (L - first)
// — segments map an LSN to its location by arithmetic, never by scanning.
// Rotation happens only at frame boundaries, so no frame spans two files.
//
// All writes are positional (pwrite at the tracked size), never O_APPEND:
// with PreallocateSegments the current file is extended to the full rotation
// size at creation — the file system allocates once instead of growing the
// file on every group commit — and appends then land inside the preallocated
// region, so the kernel's notion of "end of file" stops being the log's.
type Segments struct {
	dir      string
	segBytes int64
	prealloc bool

	writes            atomic.Uint64 // physical write submissions (one pwritev counts once)
	rotations         atomic.Uint64
	preallocs         atomic.Uint64 // segments preallocated via fallocate
	preallocFallbacks atomic.Uint64 // segments preallocated via truncate (fallocate unsupported)

	mu      sync.Mutex
	cur     *os.File
	curSize int64 // current segment payload size, header included (not the file size)
	end     LSN   // virtual offset just past the last byte in any segment
	closed  bool
}

// SegmentStats is a snapshot of Segments' physical-write counters. Writes
// counts write submissions (syscalls), not bytes: a whole vectored
// group-commit cycle counts once, which is what the writes-per-cycle
// efficiency stat measures.
type SegmentStats struct {
	Writes            uint64
	Rotations         uint64
	Preallocs         uint64
	PreallocFallbacks uint64
}

// Stats returns a snapshot of the physical-write counters.
func (s *Segments) Stats() SegmentStats {
	return SegmentStats{
		Writes:            s.writes.Load(),
		Rotations:         s.rotations.Load(),
		Preallocs:         s.preallocs.Load(),
		PreallocFallbacks: s.preallocFallbacks.Load(),
	}
}

// OpenSegments opens (creating if necessary) the segment directory. Existing
// segments are validated (a pre-upgrade or otherwise incompatible format,
// including a sharded layout's shard-NN subdirectory, fails with
// ErrLogFormat) and scanned to find the end of the durable prefix; a torn
// frame at the tail of the last segment — the signature of a crash
// mid-write — is truncated away so subsequent appends extend a valid log.
// segBytes <= 0 uses DefaultSegmentBytes. preallocate extends each new
// segment file to segBytes at creation (falling back to truncate, and then
// to plain growing writes, where the file system does not support
// fallocate); a preallocated file's zero tail scans identically to a torn
// tail, so directories move freely between preallocating and
// non-preallocating configurations.
func OpenSegments(dir string, segBytes int64, preallocate bool) (*Segments, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create segment dir: %w", err)
	}
	s := &Segments{dir: dir, segBytes: segBytes, prealloc: preallocate}
	infos, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	for i, info := range infos {
		last := i == len(infos)-1
		valid, serr := scanSegment(info.path, info.first)
		if serr != nil {
			if !last || errors.Is(serr, ErrLogFormat) {
				return nil, fmt.Errorf("wal: segment %s: %w", filepath.Base(info.path), serr)
			}
			// Torn tail (possibly a torn header from a crash at rotation):
			// drop the partial bytes; the header is rewritten below if it
			// never fully landed.
			if terr := os.Truncate(info.path, valid); terr != nil {
				return nil, fmt.Errorf("wal: truncate torn segment tail: %w", terr)
			}
		}
		if end := info.first.Advance(valid - segHeaderSize); valid >= segHeaderSize && end > s.end {
			s.end = end
		}
		if last {
			f, oerr := os.OpenFile(info.path, os.O_WRONLY, 0o644)
			if oerr != nil {
				return nil, fmt.Errorf("wal: reopen segment: %w", oerr)
			}
			if valid < segHeaderSize {
				// The crash hit between creating the file and its header
				// reaching disk; rewrite the header so the file is valid.
				if terr := os.Truncate(info.path, 0); terr != nil {
					f.Close()
					return nil, fmt.Errorf("wal: reset torn segment header: %w", terr)
				}
				if _, werr := f.WriteAt(encodeHeader(info.first), 0); werr != nil {
					f.Close()
					return nil, fmt.Errorf("wal: rewrite segment header: %w", werr)
				}
				valid = segHeaderSize
				if s.end < info.first {
					s.end = info.first
				}
			}
			s.cur = f
			s.curSize = valid
			if s.prealloc && valid < segBytes {
				// Re-extend the resumed segment to its full size. Truncate,
				// not fallocate, so any torn garbage past the valid prefix is
				// replaced by zeros — the same state a crash mid-preallocated
				// segment leaves behind.
				if terr := f.Truncate(valid); terr == nil {
					s.preallocLocked(f)
				}
			}
		}
	}
	return s, nil
}

// preallocLocked extends f to the full rotation size, preferring fallocate
// (real block allocation) and degrading to truncate (a sparse zero tail)
// where the file system does not support it. Preallocation is strictly an
// optimization: if both fail the segment simply grows write by write, and
// prealloc is switched off so later rotations stop retrying a file system
// that already said no.
func (s *Segments) preallocLocked(f *os.File) {
	if !s.prealloc {
		return
	}
	err := sysPrealloc(f, s.segBytes)
	if err == nil {
		s.preallocs.Add(1)
		return
	}
	if preallocUnsupported(err) {
		if terr := f.Truncate(s.segBytes); terr == nil {
			s.preallocFallbacks.Add(1)
			return
		}
	}
	s.prealloc = false
}

// sysPrealloc is the platform fallocate hook (see prealloc_linux.go); a
// package variable so tests can simulate an unsupporting file system.
var sysPrealloc = sysPreallocImpl

// preallocUnsupported reports whether err means the file system cannot
// preallocate (as opposed to a real I/O failure) and the truncate fallback
// should be tried.
func preallocUnsupported(err error) bool {
	return errors.Is(err, errors.ErrUnsupported) ||
		errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EOPNOTSUPP) ||
		errors.Is(err, syscall.ENOSYS) || errors.Is(err, syscall.EINVAL)
}

// listSegments returns the segment files in first-offset order.
func (s *Segments) listSegments() ([]segmentInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment dir: %w", err)
	}
	var infos []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			if isShardDir(e.Name()) {
				return nil, fmt.Errorf("%w: %s holds log shard directory %s; sharded logs are no longer readable",
					ErrLogFormat, s.dir, e.Name())
			}
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		infos = append(infos, segmentInfo{path: filepath.Join(s.dir, e.Name()), first: first})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].first < infos[j].first })
	return infos, nil
}

// scanSegment validates the header and decodes every frame in the file,
// returning the file offset of the end of the last whole frame. A trailing
// zero run — zeros with no frame after them — is the zero-frame cutoff and
// never counts as valid payload: with preallocated segments a zero tail is
// the normal state of the live segment, and it must scan exactly like the
// torn tail it is indistinguishable from. (In-stream padding is still
// counted: wraparound padding is always written together with the frame
// that claimed it, so a healthy log never ends in padding.) A decode failure
// (torn or corrupt frame) is reported alongside the prefix that was valid; a
// wrong-format header is ErrLogFormat.
func scanSegment(path string, first LSN) (validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if herr := readHeader(f, filepath.Base(path), first); herr != nil {
		if errors.Is(herr, errShortHeader) {
			return 0, fmt.Errorf("%w: short header", ErrCorrupt)
		}
		return 0, herr
	}
	r := bufio.NewReaderSize(f, 64<<10) // restart reads every segment twice: few, large reads
	off := int64(segHeaderSize)
	var scratch []byte
	for {
		_, pad, frame, derr := decodeCounted(r, &scratch)
		if derr == io.EOF {
			return off, nil
		}
		if derr != nil {
			return off, fmt.Errorf("%w at offset %d", ErrCorrupt, off+pad)
		}
		off += pad + frame
	}
}

// WriteRanges lands one whole group-commit cycle — every contiguous
// published range the flusher consumed, in virtual-offset order — with a
// single vectored submission per segment file (pwritev on Linux, a coalesced
// single pwrite elsewhere). It is the only write path: a frame goes to the
// current segment iff the segment is still under the rotation size when the
// frame starts, so a frame is never split across segment files, and every
// physical write submission is counted here. The ranges must continue the
// stored log exactly: a range below the end overlaps it, and one above the
// end leaves a hole no log buffer produces (its padding is real bytes that
// travel inside the ranges) — both are ErrCorrupt.
func (s *Segments) WriteRanges(ranges []Range) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: segments closed")
	}
	// batch accumulates iovecs destined for the current segment at
	// s.curSize; submit is the one syscall that lands them.
	var batch [][]byte
	var batchBytes int64
	submit := func() error {
		if len(batch) == 0 {
			return nil
		}
		s.writes.Add(1)
		if err := writevAt(s.cur, batch, s.curSize); err != nil {
			return fmt.Errorf("wal: segment vectored write: %w", err)
		}
		s.curSize += batchBytes
		s.end = s.end.Advance(batchBytes)
		batch, batchBytes = batch[:0], 0
		return nil
	}
	for _, r := range ranges {
		at := r.First
		pendingEnd := s.end.Advance(batchBytes)
		if at < pendingEnd {
			return fmt.Errorf("wal: range at offset %d overlaps segment end %d: %w", at, pendingEnd, ErrCorrupt)
		}
		if at > pendingEnd && s.cur != nil {
			// Only a fresh directory (or one whose segments a checkpoint
			// sealed) may start a segment above its end.
			return fmt.Errorf("wal: range at offset %d leaves a %d-byte gap after segment end %d: %w",
				at, at.Distance(pendingEnd), pendingEnd, ErrCorrupt)
		}
		data := r.Data
		for len(data) > 0 {
			if s.cur == nil || s.curSize+batchBytes >= s.segBytes {
				if err := submit(); err != nil {
					return err
				}
				if s.cur == nil || s.curSize >= s.segBytes {
					if err := s.rotateLocked(at); err != nil {
						return err
					}
					s.end = at
				}
			}
			chunk := rangePrefix(data, s.segBytes-(s.curSize+batchBytes))
			batch = append(batch, chunk)
			batchBytes += int64(len(chunk))
			at = at.Advance(int64(len(chunk)))
			data = data[len(chunk):]
		}
	}
	return submit()
}

// rangePrefix returns the longest prefix of encoded made of whole frames
// (and padding bytes) that start within the current segment's remaining
// budget. The first frame is always included — it may overshoot the budget,
// since rotation happens only before a frame, never inside one.
func rangePrefix(encoded []byte, room int64) []byte {
	off, frames := 0, 0
	for off < len(encoded) && (frames == 0 || int64(off) < room) {
		if encoded[off] == 0 { // padding byte: a one-byte unit
			off++
			continue
		}
		length, n := binary.Uvarint(encoded[off:])
		if n <= 0 || int(length) > len(encoded)-off-n {
			// The flusher only hands over whole frames; a short parse here
			// would be a log-buffer bug. Take the rest as one chunk rather
			// than loop forever.
			off = len(encoded)
			frames++
			break
		}
		off += n + int(length)
		frames++
	}
	return encoded[:off]
}

// sealCurrentLocked syncs and closes the current segment, first trimming any
// preallocated zero tail back to the payload size so sealed segments are
// byte-identical to ones written without preallocation. Only the live
// segment ever carries a zero tail; recovery relies on that when it treats a
// trailing zero run as end-of-log.
func (s *Segments) sealCurrentLocked(action string) error {
	if s.cur == nil {
		return nil
	}
	if s.prealloc && s.curSize < s.segBytes {
		if err := s.cur.Truncate(s.curSize); err != nil {
			return fmt.Errorf("wal: trim preallocated tail at %s: %w", action, err)
		}
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment at %s: %w", action, err)
	}
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("wal: close segment at %s: %w", action, err)
	}
	s.cur = nil
	s.curSize = 0
	return nil
}

// rotateLocked closes the current segment (forcing it to disk) and creates a
// fresh one whose name and header record first, the virtual offset of its
// first payload byte. Under PreallocateSegments the new file is extended to
// the full rotation size immediately, so group commits never grow the file.
func (s *Segments) rotateLocked(first LSN) error {
	if err := s.sealCurrentLocked("rotate"); err != nil {
		return err
	}
	path := filepath.Join(s.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.WriteAt(encodeHeader(first), 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	s.preallocLocked(f)
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.cur = f
	s.curSize = segHeaderSize
	s.rotations.Add(1)
	return nil
}

// Sync forces the current segment to stable storage (DurableSink).
func (s *Segments) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: segments closed")
	}
	if s.cur == nil {
		return nil
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	return nil
}

// End returns the virtual offset just past the last byte present in the
// segment files — the offset a reopened log should resume appending at.
func (s *Segments) End() LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// SegmentCount returns the number of on-disk segment files.
func (s *Segments) SegmentCount() int {
	infos, err := s.listSegments()
	if err != nil {
		return 0
	}
	return len(infos)
}

// Iterate replays every record with LSN >= from, in LSN order, stopping at
// the first torn frame in the final segment (records past a torn frame were
// never acknowledged as durable) and at the zero-frame cutoff — a trailing
// zero run with no frame after it, which is a preallocated segment's unused
// tail (or a torn pad write) and never payload. Because LSNs are byte
// offsets, the start
// position is computed, not scanned: iteration seeks directly to from inside
// the segment that covers it. from must be a frame (or padding) boundary; 0
// means the beginning of the retained log. A decode failure in any earlier
// segment is real corruption and is returned as an error. Iteration stops
// early if fn returns an error, which Iterate propagates. Each record owns
// its images: they alias one buffer allocated for that record alone, so fn
// may keep the record.
func (s *Segments) Iterate(from LSN, fn func(Record) error) error {
	infos, err := s.listSegments()
	if err != nil {
		return err
	}
	for i, info := range infos {
		// Segment i covers [first, next.first): skip it entirely when from
		// is at or past the next segment's start.
		if i+1 < len(infos) && infos[i+1].first <= from {
			continue
		}
		last := i == len(infos)-1
		if err := iterateSegment(info, last, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func iterateSegment(info segmentInfo, last bool, from LSN, fn func(Record) error) error {
	f, err := os.Open(info.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if herr := readHeader(f, filepath.Base(info.path), info.first); herr != nil {
		if errors.Is(herr, errShortHeader) {
			if last {
				return nil // torn creation; nothing durable here
			}
			return fmt.Errorf("wal: segment %s: %w: short header", filepath.Base(info.path), ErrCorrupt)
		}
		return herr
	}
	at := info.first
	if from > at {
		// Direct seek: the byte at virtual offset from lives at file offset
		// segHeaderSize + (from - first).
		if _, err := f.Seek(from.Distance(info.first), io.SeekCurrent); err != nil {
			return fmt.Errorf("wal: seek segment %s: %w", filepath.Base(info.path), err)
		}
		at = from
	}
	r := bufio.NewReaderSize(f, 64<<10) // as scanSegment
	for {
		rec, pad, frame, derr := decodeCounted(r, nil)
		if derr == io.EOF {
			return nil
		}
		if derr != nil {
			if last {
				// Torn tail from a crash mid-write: the valid prefix is the log.
				return nil
			}
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(info.path), derr)
		}
		rec.LSN = at.Advance(int64(pad))
		at = at.Advance(int64(pad + frame))
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Checkpoint marks every byte below the durable watermark as no longer
// needed: the current segment is sealed (so the next append starts a fresh
// one) and every segment wholly below durable is deleted. durable is an
// exclusive end offset (Log.DurableLSN), which makes coverage arithmetic:
// segment i is covered exactly when its end — the next segment's first
// offset — is at or below the watermark.
func (s *Segments) Checkpoint(durable LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealCurrentLocked("checkpoint"); err != nil {
		return err
	}
	infos, err := s.listSegments()
	if err != nil {
		return err
	}
	for i, info := range infos {
		covered := false
		if i+1 < len(infos) {
			covered = infos[i+1].first <= durable
		} else {
			covered = s.end <= durable
		}
		if covered {
			if err := os.Remove(info.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("wal: remove truncated segment: %w", err)
			}
		}
	}
	return syncDir(s.dir)
}

// Crash closes the current segment file WITHOUT a final sync, simulating the
// machine dying for crash-recovery tests: records written but never covered
// by a Sync may or may not survive (here, whatever the OS already holds),
// and any subsequent WriteRanges or Sync fails, wedging the owning Log.
func (s *Segments) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

// Close syncs and closes the current segment file (trimming any
// preallocated zero tail first).
func (s *Segments) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.sealCurrentLocked("close"); err != nil {
		if s.cur != nil {
			s.cur.Close()
			s.cur = nil
		}
		return err
	}
	return nil
}

// syncDir fsyncs a directory so that file creations and removals inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	return nil
}
