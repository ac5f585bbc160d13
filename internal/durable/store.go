package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: an acknowledged mutation
	// survives power loss, at the cost of one fsync per mutation on the
	// admit path's latency.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (Options.FsyncInterval): bounded
	// loss window under power failure, near-FsyncNever append latency.
	// Plain process crashes (kill -9) lose nothing under any policy —
	// the data is in the page cache once write(2) returns.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS entirely.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy resolves the flag spelling of a policy. The empty
// string selects FsyncInterval (the default trade-off).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "", FsyncInterval:
		return FsyncInterval, nil
	case FsyncAlways:
		return FsyncAlways, nil
	case FsyncNever:
		return FsyncNever, nil
	}
	return "", fmt.Errorf("durable: unknown fsync policy %q (known: always, interval, never)", s)
}

// DefaultFsyncInterval is the flush period under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultSnapshotBytes is the WAL size that triggers snapshot
// compaction. Small enough that replay stays fast (a few MiB of
// records replays in well under a second), large enough that steady
// admit/release churn does not snapshot constantly.
const DefaultSnapshotBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Dir is the state directory (created if missing). It holds
	// wal.log and snapshot.json; one daemon per directory.
	Dir string
	// Fsync is the flush policy; empty means FsyncInterval.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval flush period; 0 means
	// DefaultFsyncInterval.
	FsyncInterval time.Duration
	// SnapshotBytes is the WAL size that triggers compaction; 0 means
	// DefaultSnapshotBytes, negative disables compaction.
	SnapshotBytes int64
}

// Metrics is a point-in-time snapshot of the store's counters (the
// /metrics "wal" section's source).
type Metrics struct {
	// Records and Bytes count appends since Open (frame bytes
	// included). WALBytes is the current log file size, which
	// compaction resets.
	Records  uint64
	Bytes    uint64
	WALBytes uint64
	// Fsyncs counts explicit flushes (per-append under always, timer
	// ticks that found dirty data under interval, plus the final flush
	// on Close). Snapshots counts compactions.
	Fsyncs    uint64
	Snapshots uint64
	// Replay describes what Open recovered: records applied, records
	// skipped (absorbed by the snapshot or referencing unknown
	// targets), torn-tail bytes discarded, and wall-clock spent.
	ReplayedRecords      uint64
	ReplaySkipped        uint64
	ReplayTruncatedBytes uint64
	ReplayNanos          uint64
	// Degraded is latched by the first failed disk write; LastError
	// describes it. A degraded store refuses further appends.
	Degraded  bool
	LastError string
}

// Store is the durable controller state: an open WAL plus the shadow
// state it implies. Safe for concurrent use.
type Store struct {
	opts Options

	mu     sync.Mutex
	f      *os.File
	shadow *shadow
	seq    uint64
	state  *Snapshot // recovered image, immutable after Open
	failed error
	// walFailed is set when a WAL write or sync failed: the file's
	// state is unknown, so it is never synced again. A failed
	// compaction latches failed but not walFailed, so the records
	// already acknowledged still reach the disk.
	walFailed bool
	dirty     bool // written since last sync

	records   uint64
	bytes     uint64
	walBytes  int64
	fsyncs    uint64
	snapshots uint64
	replayed  uint64
	truncated uint64
	replayNs  uint64

	stop chan struct{}
	done chan struct{}
}

// Open loads the snapshot, replays the WAL over it (discarding a torn
// tail), and returns a store ready for appends. The recovered state
// image is available from State.
func Open(opts Options) (*Store, error) {
	start := time.Now()
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncInterval
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = DefaultSnapshotBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating state dir: %w", err)
	}
	snap, err := loadSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:   opts,
		shadow: shadowFrom(snap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.LastSeq
		s.seq = snap.LastSeq
	}
	walPath := filepath.Join(opts.Dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening wal: %w", err)
	}
	s.f = f
	data, err := os.ReadFile(walPath)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: reading wal: %w", err)
	}
	switch {
	case len(data) < magicLen:
		// Empty (fresh) or torn during the very first write: (re)write
		// the magic.
		if len(data) > 0 {
			s.truncated = uint64(len(data))
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: resetting wal: %w", err)
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: initialising wal: %w", err)
		}
		s.walBytes = magicLen
	case !bytes.Equal(data[:magicLen], []byte(walMagic)):
		f.Close()
		return nil, fmt.Errorf("durable: wal: bad magic (not a %s log file)", walMagic)
	default:
		recs, valid, derr := decodeFrames(data[magicLen:])
		if derr != nil {
			f.Close()
			return nil, derr
		}
		for _, r := range recs {
			if r.Seq <= snapSeq {
				// Already absorbed by the snapshot: a crash between
				// snapshot install and WAL truncation leaves these behind.
				s.shadow.skipped++
				continue
			}
			s.shadow.apply(r)
			s.replayed++
			s.seq = r.Seq
		}
		good := int64(magicLen + valid)
		if good < int64(len(data)) {
			s.truncated = uint64(int64(len(data)) - good)
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, fmt.Errorf("durable: discarding torn wal tail: %w", err)
			}
		}
		s.walBytes = good
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: seeking wal end: %w", err)
	}
	s.state = s.shadow.snapshot(s.seq)
	// Compact an already-oversized log now, so recovery cost stays
	// bounded across restarts even if every run crashes.
	if s.opts.SnapshotBytes > 0 && s.walBytes >= s.opts.SnapshotBytes {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.replayNs = uint64(time.Since(start).Nanoseconds())
	if s.opts.Fsync == FsyncInterval {
		go s.flushLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// State returns the recovered state image from Open. The caller owns
// it (it is never mutated by the store).
func (s *Store) State() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Append assigns r the next sequence number and logs it. A nil return
// means the record is logged: it replays on recovery, within the fsync
// policy's loss window. On the first disk failure the store latches
// degraded and every later append returns the latched error. A failed
// write or sync fails this append too, so the caller does not apply
// the mutation; a failed compaction after the record is logged does
// not — the record replays, so refusing it would let an unacknowledged
// mutation come back on restart — and only the next append fails.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	r.Seq = s.seq + 1
	buf, err := encodeRecord(r)
	if err != nil {
		return err // encoding says nothing about the disk: not latched
	}
	if len(buf)-frameHeaderLen > DefaultMaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte cap", len(buf)-frameHeaderLen, DefaultMaxRecordBytes)
	}
	if _, err := s.f.Write(buf); err != nil {
		return s.failWAL(fmt.Errorf("durable: appending record: %w", err))
	}
	s.dirty = true
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	s.seq = r.Seq
	s.shadow.apply(r)
	s.records++
	s.bytes += uint64(len(buf))
	s.walBytes += int64(len(buf))
	if s.opts.SnapshotBytes > 0 && s.walBytes >= s.opts.SnapshotBytes {
		if err := s.compactLocked(); err != nil {
			// The record is logged; latch so that the next append
			// fails: the disk is misbehaving. The WAL itself did not
			// fail, so the flush loop and Close keep syncing it.
			s.fail(err)
		}
	}
	return nil
}

// compactLocked snapshots the shadow and truncates the WAL. Caller
// holds s.mu.
func (s *Store) compactLocked() error {
	if err := writeSnapshot(s.opts.Dir, s.shadow.snapshot(s.seq)); err != nil {
		return err
	}
	if err := s.f.Truncate(magicLen); err != nil {
		return fmt.Errorf("durable: truncating wal after snapshot: %w", err)
	}
	if _, err := s.f.Seek(magicLen, 0); err != nil {
		return fmt.Errorf("durable: seeking wal after snapshot: %w", err)
	}
	// No WAL fsync needed here: if the truncation is lost to a crash,
	// the revived records all carry seq <= the snapshot's LastSeq and
	// replay skips them.
	s.walBytes = magicLen
	s.snapshots++
	return nil
}

// fail latches the store's degraded state.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return s.failed
}

// failWAL latches the store degraded after a failed WAL write or sync,
// and stops every later sync of the WAL.
func (s *Store) failWAL(err error) error {
	s.walFailed = true
	return s.fail(err)
}

// syncLocked fsyncs the WAL; a failure latches the store. Caller holds
// s.mu.
func (s *Store) syncLocked() error {
	if err := s.f.Sync(); err != nil {
		err = fmt.Errorf("durable: syncing wal: %w", err)
		s.failWAL(err)
		return err
	}
	s.fsyncs++
	s.dirty = false
	return nil
}

// flushLoop is the FsyncInterval timer: flush when dirty, until Close.
func (s *Store) flushLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.walFailed {
				_ = s.syncLocked() // a failure latches the store
			}
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}

// Metrics snapshots the counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Records:              s.records,
		Bytes:                s.bytes,
		WALBytes:             uint64(s.walBytes),
		Fsyncs:               s.fsyncs,
		Snapshots:            s.snapshots,
		ReplayedRecords:      s.replayed,
		ReplaySkipped:        s.shadow.skipped,
		ReplayTruncatedBytes: s.truncated,
		ReplayNanos:          s.replayNs,
	}
	if s.failed != nil {
		m.Degraded = true
		m.LastError = s.failed.Error()
	}
	return m
}

// Close flushes and closes the WAL. The store must not be appended to
// afterwards.
func (s *Store) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if s.dirty && !s.walFailed && s.opts.Fsync != FsyncNever {
		err = s.syncLocked()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
