package live

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// liveFixture is an ingester directory written by an earlier release: a
// committed checkpoint (checkpoint.meta + checkpoint-<epoch>/) and a
// live.wal tail of writes acknowledged after it. liveFixture+".digest"
// records what that release recovered from it.
const liveFixture = "testdata/live-v1"

// liveDigest summarises recovered ingester state: the replay fence, each
// store shard's snapshot bytes, and the fused records (order-independent).
func liveDigest(t *testing.T, tm *core.Tamer, rep store.EventReplayStats) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "replay applied=%d skipped=%d last_seq=%d truncated=%v\n",
		rep.Applied, rep.Skipped, rep.LastSeq, rep.Truncated)
	for _, s := range []*store.Sharded{tm.Instances, tm.Entities} {
		for i := 0; i < s.NumShards(); i++ {
			var buf bytes.Buffer
			if err := s.Shard(i).WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s/%d docs=%d sha256=%x\n", s.NS(), i, s.Shard(i).Count(), sha256.Sum256(buf.Bytes()))
		}
	}
	recs := tm.FusedRecords()
	enc := make([]string, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		encodeRecordTo(&buf, r)
		enc[i] = buf.String()
	}
	sort.Strings(enc)
	fmt.Fprintf(&b, "fused records=%d sha256=%x\n", len(enc), sha256.Sum256([]byte(strings.Join(enc, "\x00"))))
	return b.String()
}

// TestRecoversLiveFixture proves the on-disk formats did not move: the
// fixture recovers to exactly the state the release that wrote it did.
func TestRecoversLiveFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(liveFixture)); err != nil {
		t.Fatal(err)
	}
	tm := liveTamer(t)
	ing, err := Open(context.Background(), tm, Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	want, err := os.ReadFile(liveFixture + ".digest")
	if err != nil {
		t.Fatal(err)
	}
	if got := liveDigest(t, tm, ing.Replay()); got != string(want) {
		t.Errorf("recovered state differs from the fixture's digest:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
