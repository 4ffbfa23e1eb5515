package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/record"
	"repro/internal/store"
)

// walName is the write-ahead log file inside the ingester directory.
const walName = "live.wal"

// Checkpoints are written to epoch-numbered directories
// (checkpoint-<epoch>/ with store snapshots plus fused.snap); the meta file
// is the atomic commit point — it is renamed into place only after the new
// epoch directory is complete, so a crash mid-checkpoint leaves the
// previous epoch (and its WAL fence) intact.
const (
	checkpointPrefix = "checkpoint-"
	metaName         = "checkpoint.meta"
	fusedName        = "fused.snap"
)

type checkpointMeta struct {
	// LastSeq fences WAL replay: events at or below it are in the checkpoint.
	LastSeq uint64
	// Epoch names the committed checkpoint directory.
	Epoch uint64
}

// epochDir is the checkpoint directory for one epoch, inside dir.
func epochDir(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d", checkpointPrefix, epoch))
}

// dropStaleEpochs best-effort removes every checkpoint directory except the
// committed epoch's — uncommitted epochs from crashed checkpoints and
// superseded ones.
func dropStaleEpochs(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepName := filepath.Base(epochDir(dir, keep))
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > len(checkpointPrefix) &&
			e.Name()[:len(checkpointPrefix)] == checkpointPrefix && e.Name() != keepName {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// Fused-view checkpoint file: one event per consolidated record, reusing
// the event-log CRC framing. Its data is fsynced whatever Config.Fsync
// says, because loadFused treats a torn file as corruption rather than a
// crash artifact.
func saveFused(path string, recs []*record.Record) error {
	return durable.WriteFile(path, durable.SyncData, func(w io.Writer) error {
		lg, err := store.NewEventLog(w)
		if err != nil {
			return err
		}
		for _, r := range recs {
			var buf bytes.Buffer
			encodeRecordTo(&buf, r)
			if _, err := lg.Append(evRecords, buf.Bytes()); err != nil {
				return err
			}
		}
		return lg.Flush()
	})
}

func loadFused(path string) ([]*record.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record.Record
	stats, err := store.ReplayEventLog(f, 0, func(_ uint64, _ byte, payload []byte) error {
		rec, err := decodeRecordFrom(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stats.Truncated {
		// A committed checkpoint is written and fsynced in full, so a torn
		// frame here is real corruption — fail loudly rather than serving
		// a silently shrunken fused view.
		return nil, fmt.Errorf("live: fused checkpoint %s is truncated", path)
	}
	return recs, nil
}

// writeMeta commits a checkpoint by renaming the meta file into place.
// Under SyncAll the file's data is durable BEFORE the rename — a rename
// whose directory entry survives a power cut while the file data does not
// would leave a corrupt commit record that bricks every Open — and the
// rename is durable before any caller truncates the WAL it fences.
func writeMeta(dir string, m checkpointMeta, policy durable.Sync) error {
	return durable.WriteFile(filepath.Join(dir, metaName), policy, func(w io.Writer) error {
		_, err := w.Write(m.encode())
		return err
	})
}

// encode is the checkpoint.meta format: two uvarints, LastSeq then Epoch.
func (m checkpointMeta) encode() []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, m.LastSeq), m.Epoch)
}

func readMeta(dir string) (checkpointMeta, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, fs.ErrNotExist) {
		return checkpointMeta{}, false, nil
	}
	if err != nil {
		return checkpointMeta{}, false, err
	}
	m, err := parseMeta(data)
	if err != nil {
		return checkpointMeta{}, false, err
	}
	return m, true, nil
}

// parseMeta decodes what checkpointMeta.encode wrote.
func parseMeta(data []byte) (checkpointMeta, error) {
	seq, n := binary.Uvarint(data)
	if n <= 0 {
		return checkpointMeta{}, fmt.Errorf("live: corrupt checkpoint meta")
	}
	epoch, n2 := binary.Uvarint(data[n:])
	if n2 <= 0 {
		return checkpointMeta{}, fmt.Errorf("live: corrupt checkpoint meta")
	}
	return checkpointMeta{LastSeq: seq, Epoch: epoch}, nil
}
