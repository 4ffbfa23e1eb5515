package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// shardFixture is a node data directory (dtnode -data-dir) written by an
// earlier release: per shard a committed shard.snap + shard.manifest and a
// shard.wal tail of writes after that checkpoint. shardFixture+".digest"
// records what that release recovered from it.
const shardFixture = "testdata/node-v1"

// nodeDigest summarises every hosted shard: generation, snapshot bytes and
// index manifest.
func nodeDigest(t *testing.T, node *Node) string {
	t.Helper()
	var b strings.Builder
	for _, key := range node.ShardKeys() {
		coll, gen := node.shard(key).view()
		var buf bytes.Buffer
		if err := coll.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s gen=%d docs=%d snap=%x manifest=%x\n", key, gen, coll.Count(),
			sha256.Sum256(buf.Bytes()), EncodeIndexManifest(coll))
	}
	return b.String()
}

// TestRecoversNodeFixture proves the shard formats did not move: the
// fixture recovers to exactly the state the release that wrote it did.
func TestRecoversNodeFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(shardFixture)); err != nil {
		t.Fatal(err)
	}
	node := NewNode("compat")
	hostAll(node, 1)
	if err := node.EnableDurability(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	want, err := os.ReadFile(shardFixture + ".digest")
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeDigest(t, node); got != string(want) {
		t.Errorf("recovered state differs from the fixture's digest:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
