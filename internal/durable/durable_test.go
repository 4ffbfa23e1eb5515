package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestLogSizeTracksFile: the arithmetic size equals the file's real size
// after appends and after a rotate, under every policy.
func TestLogSizeTracksFile(t *testing.T) {
	for name, policy := range map[string]Sync{"flush": Flush, "sync-data": SyncData, "sync-all": SyncAll} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			l, err := Create(path, 1, policy)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			check := func(when string) {
				t.Helper()
				if got, want := l.Size(), fileSize(t, path); got != want {
					t.Fatalf("%s: tracked size %d, file size %d", when, got, want)
				}
			}
			check("fresh")
			// Payload sizes straddle the uvarint boundaries of the frame.
			for i, n := range []int{0, 1, 127, 128, 300, 20000} {
				if _, err := l.Append(byte(i), make([]byte, n)); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("after %d-byte append", n))
			}
			if l.Events() != 6 {
				t.Fatalf("events = %d, want 6", l.Events())
			}
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
			check("after rotate")
			if l.Events() != 0 || l.NextSeq() != 7 {
				t.Fatalf("after rotate: events %d, next seq %d; want 0 and 7", l.Events(), l.NextSeq())
			}
			seq, err := l.Append(1, []byte("post-rotate"))
			if err != nil || seq != 7 {
				t.Fatalf("post-rotate append: seq %d, %v", seq, err)
			}
			check("after post-rotate append")
		})
	}
}

// TestReplayTornTail: a log whose last frame was cut short replays every
// whole frame before it and reports the tear instead of failing.
func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, 5, Flush)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two", "three"} {
		if _, err := l.Append(1, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var got []string
	stats, err := Replay(path, 5, func(seq uint64, _ byte, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", seq, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Applied != 1 || stats.Skipped != 1 || stats.LastSeq != 6 {
		t.Errorf("stats = %+v", stats)
	}
	if len(got) != 1 || got[0] != "6:two" {
		t.Errorf("replayed %v, want [6:two]", got)
	}

	// A log that was never created is empty, not an error.
	stats, err = Replay(filepath.Join(t.TempDir(), "absent.wal"), 0, nil)
	if err != nil || stats.Applied != 0 || stats.Truncated {
		t.Errorf("missing log: %+v, %v", stats, err)
	}
}

// TestWriteFileFailureKeepsPrevious: a write that fails partway leaves the
// previous file intact and no tmp file behind; a successful one replaces it.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFile(path, SyncAll, put("v1")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, Flush, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of v2"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "v1" {
		t.Fatalf("after failed write: %q, %v; want v1", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want 1 (no .tmp)", len(entries))
	}
	if err := WriteFile(path, SyncData, put("v2")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "v2" {
		t.Fatalf("after successful write: %q", data)
	}
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}
