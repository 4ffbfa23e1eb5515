package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/store"
)

// Node-local durability: each hosted shard can be backed by a directory
// holding a checkpoint (document snapshot + index manifest + generation)
// and a write-ahead log of every replicated mutation since. The WAL is a
// store.EventLog whose sequence numbers ARE shard generations, so "the
// WAL replayed through seq G" and "the shard is at generation G" are the
// same statement — the replication feed, the read-your-writes fence, and
// on-disk recovery all count the same counter.
//
// Crash safety: a checkpoint writes the snapshot, then the manifest (the
// commit point, carrying the generation), then truncates the WAL — each
// file committed by durable.WriteFile (tmp+rename, no fsync). A crash
// between the snapshot and manifest renames leaves an old-generation
// manifest over a newer snapshot; recovery then re-applies WAL events the
// snapshot already contains, which is safe because every event applies
// idempotently (ApplyReplay is insert-or-replace by id, Delete and
// EnsureIndex are no-ops when already done). Appends are flushed, not
// fsynced: state survives a process kill, matching the live WAL's default
// durability.

const (
	shardSnapName     = "shard.snap"
	shardManifestName = "shard.manifest"
	shardWALName      = "shard.wal"
)

// shardStore is the on-disk backing of one hosted shard.
type shardStore struct {
	dir string
	wal *durable.Log

	// Checkpoint fence, for readiness reporting: the generation the last
	// committed checkpoint captured and when it committed. WAL lag is the
	// shard generation minus cpGen — the mutations a crash would replay.
	cpGen uint64
	cpAt  time.Time
}

// shardDirName maps a shard key ("dt.entity/2") to a directory name.
func shardDirName(key string) string {
	return strings.ReplaceAll(key, "/", "-")
}

// openShardStore creates (or reuses) the directory backing one shard.
// The WAL stays unopened until recover or checkpoint sets one up.
func openShardStore(root, key string) (*shardStore, error) {
	dir := filepath.Join(root, shardDirName(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating shard dir: %w", err)
	}
	return &shardStore{dir: dir}, nil
}

// readManifest loads the committed checkpoint fence: the generation and
// index manifest written by the last successful checkpoint. ok=false
// means no checkpoint has ever committed (fresh directory).
func (s *shardStore) readManifest() (gen uint64, manifest []byte, ok bool, err error) {
	f, err := os.Open(filepath.Join(s.dir, shardManifestName))
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	defer f.Close()
	frame, err := store.ReadFrame(bufio.NewReader(f), 0)
	if err != nil {
		return 0, nil, false, fmt.Errorf("cluster: shard manifest: %w", err)
	}
	rd := bytes.NewReader(frame)
	gen, err = binary.ReadUvarint(rd)
	if err != nil {
		return 0, nil, false, fmt.Errorf("cluster: shard manifest gen: %w", err)
	}
	manifest, err = getBytes(rd)
	if err != nil {
		return 0, nil, false, fmt.Errorf("cluster: shard manifest body: %w", err)
	}
	return gen, manifest, true, nil
}

// recover rebuilds the shard from disk: checkpoint snapshot (when one
// committed) with its index manifest applied, then the WAL tail replayed
// over it. Without a checkpoint, fallback (the node's freshly built empty
// collection) receives the replay. Returns the recovered collection and
// its generation; the caller should checkpoint the result to compact the
// WAL and must not append before that checkpoint reopens it.
func (s *shardStore) recover(fallback *store.Collection, extentSize int64) (*store.Collection, uint64, error) {
	coll := fallback
	gen, manifest, hasCP, err := s.readManifest()
	if err != nil {
		return nil, 0, err
	}
	if hasCP {
		s.cpGen = gen
		if st, err := os.Stat(filepath.Join(s.dir, shardManifestName)); err == nil {
			s.cpAt = st.ModTime()
		}
		f, err := os.Open(filepath.Join(s.dir, shardSnapName))
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: shard snapshot: %w", err)
		}
		loaded, err := store.ReadSnapshot(f, extentSize)
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: shard snapshot: %w", err)
		}
		if err := ApplyIndexManifest(loaded, manifest); err != nil {
			return nil, 0, err
		}
		coll = loaded
	}
	// A torn tail (crash mid-append) stops the replay cleanly; the caller's
	// re-checkpoint then rewrites the WAL from the recovered state, so the
	// tear never accumulates.
	_, err = durable.Replay(filepath.Join(s.dir, shardWALName), gen, func(seq uint64, kind byte, payload []byte) error {
		if err := applyEvent(coll, kind, payload); err != nil {
			return err
		}
		if seq > gen {
			gen = seq
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: shard wal replay: %w", err)
	}
	return coll, gen, nil
}

// checkpoint persists the shard at generation gen — snapshot, then
// manifest (the commit point), then a truncated WAL continuing at gen+1 —
// and leaves the WAL open for appends.
func (s *shardStore) checkpoint(c *store.Collection, gen uint64) error {
	if err := durable.WriteFile(filepath.Join(s.dir, shardSnapName), durable.Flush, c.WriteSnapshot); err != nil {
		return fmt.Errorf("cluster: shard snapshot: %w", err)
	}
	var frame bytes.Buffer
	putUvarint(&frame, gen)
	putBytes(&frame, EncodeIndexManifest(c))
	if err := durable.WriteFile(filepath.Join(s.dir, shardManifestName), durable.Flush, func(w io.Writer) error {
		return store.WriteFrame(w, frame.Bytes())
	}); err != nil {
		return fmt.Errorf("cluster: shard manifest: %w", err)
	}
	if err := s.resetWAL(gen + 1); err != nil {
		return err
	}
	s.cpGen, s.cpAt = gen, time.Now()
	return nil
}

// resetWAL truncates the WAL and starts a fresh event log at nextSeq.
func (s *shardStore) resetWAL(nextSeq uint64) error {
	if s.wal != nil {
		// The checkpoint that just committed holds every event of the old
		// log, so a failure to flush it loses nothing.
		_ = s.wal.Close()
		s.wal = nil
	}
	wal, err := durable.Create(filepath.Join(s.dir, shardWALName), nextSeq, durable.Flush)
	if err != nil {
		return fmt.Errorf("cluster: shard wal: %w", err)
	}
	s.wal = wal
	return nil
}

// append logs one mutation event at sequence seq and flushes it. seq must
// be the log's next sequence number — generations increment by one per
// mutation, so any gap means the in-memory shard and its WAL diverged,
// which is corruption, not a recoverable state.
func (s *shardStore) append(seq uint64, kind byte, payload []byte) error {
	if s.wal == nil {
		return fmt.Errorf("cluster: shard wal not open")
	}
	if got := s.wal.NextSeq(); got != seq {
		return fmt.Errorf("cluster: shard wal at seq %d, event has seq %d", got, seq)
	}
	_, err := s.wal.Append(kind, payload)
	return err
}

// close releases the WAL file handle.
func (s *shardStore) close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// applyEvent applies one replication event to a collection — the shared
// apply path of follower replication and node-local WAL recovery.
func applyEvent(c *store.Collection, kind byte, payload []byte) error {
	switch kind {
	case EvInsert, EvUpdate:
		id, d, err := DecodeIDDoc(payload)
		if err != nil {
			return err
		}
		c.ApplyReplay(id, d)
	case EvDelete:
		id, _, err := DecodeIDDoc(payload)
		if err != nil {
			return err
		}
		c.Delete(id)
	case EvCreateIndex:
		name, path, k, err := DecodeCreateIndex(payload)
		if err != nil {
			return err
		}
		c.EnsureIndex(name, path, k)
	case EvCreateTextIndex:
		p, err := getString(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		c.EnsureTextIndex(p)
	default:
		return fmt.Errorf("cluster: unknown replication event kind %d", kind)
	}
	return nil
}
