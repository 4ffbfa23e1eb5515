// Package durable holds every file write in this module that must survive
// a crash: an append-only event-log file over store.EventLog, a helper
// that writes a file into place (tmp file, rename), and a directory fsync.
// The live ingester's WAL and checkpoints and the cluster's node-local
// shard storage are built from these pieces; each caller keeps its own
// on-disk layout and chooses its fsync policy per file.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/store"
)

// Sync is a durability policy: which fsyncs a write performs beyond
// flushing to the operating system, which alone survives a process kill.
type Sync uint8

const (
	// Flush performs no fsync.
	Flush Sync = iota
	// SyncData fsyncs file data: a new log's header and each append, or a
	// file's contents before it is renamed into place.
	SyncData
	// SyncAll is SyncData plus an fsync of the directory naming the file,
	// after a log is created or a file is renamed into place — without it
	// the file itself may vanish in a power failure.
	SyncAll
)

// Log is an append-only event-log file. Append flushes each event to the
// OS before returning (and fsyncs it under SyncData or SyncAll), so an
// acknowledged event survives a process kill. The file size is tracked
// arithmetically to keep fstat off the append path. Methods are safe for
// concurrent use.
type Log struct {
	mu     sync.Mutex
	path   string
	policy Sync
	f      *os.File
	el     *store.EventLog
	size   int64
	events int64
}

// Create starts a fresh log at path, replacing any existing file, whose
// sequence numbers continue from nextSeq.
func Create(path string, nextSeq uint64, policy Sync) (*Log, error) {
	l := &Log{path: path, policy: policy}
	if err := l.open(nextSeq); err != nil {
		return nil, err
	}
	return l, nil
}

// open (re)creates the log file with a header numbering from nextSeq and
// installs it. On failure l keeps its previous file. Caller holds l.mu or
// owns l exclusively.
func (l *Log) open(nextSeq uint64) error {
	f, err := os.Create(l.path)
	if err != nil {
		return fmt.Errorf("durable: creating log: %w", err)
	}
	el, err := store.NewEventLogAt(f, nextSeq)
	if err == nil {
		err = el.Flush()
	}
	if err == nil && l.policy >= SyncData {
		err = f.Sync()
	}
	if err == nil && l.policy == SyncAll {
		err = syncPath(filepath.Dir(l.path))
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: starting log: %w", err)
	}
	l.f, l.el, l.size, l.events = f, el, 0, 0
	if st, err := f.Stat(); err == nil {
		l.size = st.Size()
	}
	return nil
}

// Append writes one event, flushes it and, under SyncData or SyncAll,
// fsyncs it; the returned sequence number is durable when Append returns.
func (l *Log) Append(kind byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.el.Append(kind, payload)
	if err != nil {
		return 0, err
	}
	if err := l.el.Flush(); err != nil {
		return 0, err
	}
	if l.policy >= SyncData {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
	}
	l.events++
	// Frame layout: 4-byte length + (uvarint seq + kind + payload) + 4-byte CRC.
	var tmp [binary.MaxVarintLen64]byte
	l.size += int64(8 + binary.PutUvarint(tmp[:], seq) + 1 + len(payload))
	return seq, nil
}

// Rotate truncates the log after a checkpoint, keeping the sequence
// numbering monotonic.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.closeFile(); err != nil {
		return err
	}
	return l.open(l.el.NextSeq())
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.el.NextSeq()
}

// Size returns the log file's size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Events returns the number of events appended since the log was created
// or last rotated.
func (l *Log) Events() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeFile()
}

func (l *Log) closeFile() error {
	err := l.el.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay streams the events of the log file at path with a sequence
// number above afterSeq through fn. A missing file is an empty log; a
// torn or corrupt tail stops the replay cleanly at the last whole frame
// (the returned stats report Truncated).
func Replay(path string, afterSeq uint64, fn func(seq uint64, kind byte, payload []byte) error) (store.EventReplayStats, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return store.EventReplayStats{}, nil
	}
	if err != nil {
		return store.EventReplayStats{}, fmt.Errorf("durable: opening log: %w", err)
	}
	defer f.Close()
	return store.ReplayEventLog(f, afterSeq, fn)
}

// WriteFile writes a file into place: write fills path+".tmp", which is
// fsynced under SyncData or SyncAll and then renamed over path; under
// SyncAll the directory is fsynced after the rename. A failure at any
// step leaves the previous file at path intact and removes the tmp file.
func WriteFile(path string, policy Sync, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && policy >= SyncData {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if policy == SyncAll {
		return syncPath(filepath.Dir(path))
	}
	return nil
}

// SyncDir fsyncs every regular file directly under dir, then dir itself,
// making a flat directory written without fsyncs durable as a whole.
func SyncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return syncPath(dir)
}

// syncPath opens path read-only and fsyncs it; for a directory this makes
// its entries durable.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
