package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Log is a record-oriented append-only write-ahead log — the durability
// substrate beneath internal/txn's group commit, sharing the page WAL's
// on-disk discipline (magic header, CRC-guarded records, torn-tail
// discard) but logging caller-defined records instead of page images.
//
// File format (little-endian):
//
//	header:  magic "MDSLOG01" (8 bytes)
//	record:  length u32 | length bytes payload | crc32 u32
//
// The crc covers the length field and the payload. OpenLog replays every
// complete, checksum-valid record in order and truncates a trailing
// partial record — an interrupted append that never reached durability.
// A record is durable exactly when a Sync call has returned after its
// Append, which is the contract group commit acknowledges against.
//
// All methods are safe for concurrent use; Append serializes internally,
// so concurrent appenders interleave whole records, never bytes.
const logMagic = "MDSLOG01"

// LogHeaderSize and LogFrameSize place a record in the file: the first
// record starts LogHeaderSize bytes in, and each record occupies
// LogFrameSize bytes (length prefix and crc) beyond its payload.
const (
	LogHeaderSize = int64(len(logMagic))
	LogFrameSize  = 8
)

// MaxLogRecord bounds a single record's payload (64 MiB) — an
// implausibility guard that turns a corrupt length field into a clean
// torn-tail stop instead of a giant allocation. Exported so callers can
// reject an oversized record before attempting the append.
const MaxLogRecord = 64 << 20

// ErrLogCorrupt is returned by OpenLog when the file exists but does not
// start with the log magic — it is some other file, not a torn log.
var ErrLogCorrupt = errors.New("pager: not a record log file")

// Log appends CRC-guarded records to a file. See the package-level format
// notes above.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // current file size (header + valid records)
}

// OpenLog opens (or creates) the record log at path, scans it, truncates
// any torn tail, and hands every valid record payload to replay in append
// order. replay may be nil when the caller only wants the log opened
// (e.g. a fresh database). The returned Log appends after the last valid
// record.
func OpenLog(path string, replay func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open log %s: %w", path, err)
	}
	l := &Log{f: f, path: path}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < LogHeaderSize {
		// New file, or a header that never finished writing: nothing was
		// ever durable, start clean.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteAt([]byte(logMagic), 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.size = LogHeaderSize
		return l, nil
	}
	head := make([]byte, len(logMagic))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(head))), head); err != nil {
		f.Close()
		return nil, err
	}
	if string(head) != logMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLogCorrupt, path)
	}
	valid, err := scanLog(f, fi.Size(), replay)
	if err != nil {
		f.Close()
		return nil, err
	}
	if valid < fi.Size() {
		// Torn tail: discard it so the next append starts at a clean
		// record boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.size = valid
	return l, nil
}

// scanLog walks records from the header to the first torn or corrupt one
// and returns the offset of the end of the last valid record.
func scanLog(f *os.File, size int64, replay func([]byte) error) (int64, error) {
	r := io.NewSectionReader(f, LogHeaderSize, size-LogHeaderSize)
	off := LogHeaderSize
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean end or partial length: stop
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > MaxLogRecord {
			return off, nil // implausible length: treat as torn
		}
		body := make([]byte, n+4) // payload + crc
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil
		}
		crc := crc32.ChecksumIEEE(hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:n])
		if crc != binary.LittleEndian.Uint32(body[n:]) {
			return off, nil // torn or corrupt record: discard from here
		}
		if replay != nil {
			if err := replay(body[:n]); err != nil {
				return off, err
			}
		}
		off += LogFrameSize + int64(n)
	}
}

// Append writes one record to the log buffer-through-OS (no fsync). The
// record is durable only after a subsequent Sync returns; group commit
// appends a batch of records and syncs once for all of them.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxLogRecord {
		return fmt.Errorf("pager: log record of %d bytes out of range", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 0, 4+len(payload)+4)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, crc[:]...)
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return err
	}
	l.size += int64(len(buf))
	return nil
}

// Sync fsyncs the log: every record appended before the call is durable
// once Sync returns. The mutex is held across the fsync — RewriteFrom closes
// the old handle after renaming, so releasing it early could sync a
// closed file. Appends stall for the fsync's duration, which group
// commit absorbs by batching.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Size returns the log file size in bytes (header included) — the
// operator-visible "how much WAL does a restart read" number.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Truncate cuts the log back to size bytes — the undo for a failed
// multi-record append: a group commit that could not complete removes
// its half-written records so a later replay sees only acknowledged
// groups. size must come from a prior Size call (it is never validated
// against record boundaries here; cutting at one is the caller's
// contract).
func (l *Log) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size < LogHeaderSize || size > l.size {
		return fmt.Errorf("pager: log truncate to %d out of range", size)
	}
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = size
	return nil
}

// RewriteFrom atomically drops every record before offset off: the
// records in [off, Size()) are copied file to file after a fresh header
// into a sibling temp file, which is fsynced and renamed over the log,
// and the directory is fsynced. Checkpoints use it to drop the records a
// promoted snapshot holds; no payload passes through the caller. off
// must be a record boundary — LogHeaderSize, or a Size taken after an
// Append (the caller's contract, as for Truncate). On return the copied
// records start at LogHeaderSize and appends follow them. An error before
// the rename leaves the log unchanged; a failed directory fsync is
// reported after the swap.
func (l *Log) RewriteFrom(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < LogHeaderSize || off > l.size {
		return fmt.Errorf("pager: log rewrite from %d out of range", off)
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write([]byte(logMagic)); err != nil {
		return fail(err)
	}
	n, err := io.Copy(f, io.NewSectionReader(l.f, off, l.size-off))
	if err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fail(err)
	}
	// Swap the live handle to the renamed file.
	old := l.f
	l.f = f
	l.size = LogHeaderSize + n
	old.Close()
	// Make the rename itself durable (directory entry).
	dir, err := os.Open(dirOf(l.path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Close releases the log file handle without syncing (callers sync as
// part of their commit protocol).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// dirOf returns the directory portion of path for directory fsyncs.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}
