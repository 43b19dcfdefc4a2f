package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graql/internal/obs"
)

// File names inside a data directory.
const (
	walFile  = "wal.gqw"
	snapFile = "snapshot.gqs"
)

// Store is an open data directory: one WAL file plus at most one snapshot.
// Append is safe for concurrent use, though the engine already serialises
// writers through the catalog's writer mutex.
type Store struct {
	dir   string
	fsync bool

	mu       sync.Mutex
	f        *os.File
	lastSeq  uint64
	snapSeq  uint64
	walBytes int64
	walTail  []byte // valid WAL contents read at open; freed after Replay

	fsyncHist   *obs.Histogram
	walBytesCtr *obs.Counter
	walRecords  *obs.Counter
	checkpoints *obs.Counter
}

// Open opens (creating if needed) the data directory. fsync controls
// whether every WAL append is flushed to stable storage before the write
// is acknowledged ("always" durability) or left to the OS ("off"). reg,
// when non-nil, receives WAL metrics: fsync latency, appended bytes and
// records, checkpoint count.
func Open(dir string, fsync bool, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graql: storage: %w", err)
	}
	s := &Store{dir: dir, fsync: fsync}
	if reg != nil {
		s.fsyncHist = reg.Histogram("graql_wal_fsync_seconds",
			"WAL fsync latency per committed record.", obs.LatencyBuckets())
		s.walBytesCtr = reg.Counter("graql_wal_appended_bytes_total",
			"Bytes appended to the write-ahead log.")
		s.walRecords = reg.Counter("graql_wal_records_total",
			"Records appended to the write-ahead log.")
		s.checkpoints = reg.Counter("graql_checkpoints_total",
			"Snapshots written (WAL truncations).")
	}

	// The snapshot header carries the sequence number it covers; WAL
	// records at or below it are already folded in.
	if snap, err := s.readSnapshotHeader(); err != nil {
		return nil, err
	} else {
		s.snapSeq = snap
		s.lastSeq = snap
	}

	// Scan the WAL once to find the last good frame; a torn tail (partial
	// final write from a crash) is truncated away so appends restart at a
	// clean frame boundary.
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("graql: storage: %w", err)
	}
	validLen, err := ScanFrames(data, func(rec *Record) error {
		if rec.Seq > s.lastSeq {
			s.lastSeq = rec.Seq
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("graql: storage: %s: %w", walFile, err)
	}
	s.walTail = data[:validLen]
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("graql: storage: %w", err)
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return nil, fmt.Errorf("graql: storage: %w", err)
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("graql: storage: %w", err)
	}
	s.f = f
	s.walBytes = int64(validLen)
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Fsync reports whether every WAL append is flushed to stable storage
// before it is acknowledged (the policy Open was given).
func (s *Store) Fsync() bool { return s.fsync }

// LastSeq returns the sequence number of the last durable record (or the
// snapshot's, when the WAL is empty).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// WALSize returns the current WAL file size in bytes.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// Append assigns the next sequence number to rec, frames it, appends it to
// the WAL and (per the fsync policy) flushes it to stable storage. The
// record is durable when Append returns without error; the returned count
// is the framed size in bytes (callers attribute WAL volume to the
// statement that produced it).
func (s *Store) Append(rec *Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.lastSeq + 1
	payload, err := encodePayload(rec)
	if err != nil {
		return 0, err
	}
	frame := encodeFrame(payload)
	if _, err := s.f.Write(frame); err != nil {
		return 0, fmt.Errorf("graql: wal append: %w", err)
	}
	if s.fsync {
		start := time.Now()
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("graql: wal fsync: %w", err)
		}
		if s.fsyncHist != nil {
			s.fsyncHist.Observe(time.Since(start).Seconds())
		}
	}
	s.lastSeq = rec.Seq
	s.walBytes += int64(len(frame))
	if s.walBytesCtr != nil {
		s.walBytesCtr.Add(int64(len(frame)))
		s.walRecords.Inc()
	}
	return len(frame), nil
}

// Replay invokes fn for every WAL record newer than the snapshot, in log
// order, then frees the buffered log tail. Call once, after Open and
// LoadSnapshot, before any Append.
func (s *Store) Replay(fn func(*Record) error) error {
	s.mu.Lock()
	tail := s.walTail
	snapSeq := s.snapSeq
	s.walTail = nil
	s.mu.Unlock()
	_, err := ScanFrames(tail, func(rec *Record) error {
		if rec.Seq <= snapSeq {
			return nil // already folded into the snapshot
		}
		return fn(rec)
	})
	return err
}

// Close closes the WAL file. It does not checkpoint; callers that want a
// compact restart write a snapshot first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
