package live

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/record"
)

// WAL payloads are CRC-checked before they reach these decoders, but a
// decoder must still fail cleanly — never panic or allocate from a bogus
// length — on any bytes, since recovery runs them over whatever is on disk.
// Seed corpora live in testdata/fuzz/<target>.

func FuzzDecodeText(f *testing.F) {
	f.Add(encodeText([]Fragment{{URL: "http://x/1", Text: "Matilda grossed 960,998."}, {}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		frags, err := decodeText(data)
		if err != nil {
			return
		}
		again, err := decodeText(encodeText(frags))
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if len(frags) != len(again) || (len(frags) > 0 && !reflect.DeepEqual(frags, again)) {
			t.Fatalf("round trip changed the batch: %v -> %v", frags, again)
		}
	})
}

func FuzzDecodeRecords(f *testing.F) {
	r := record.New()
	r.Set("SHOW_NAME", record.String("Matilda"))
	r.Set("CHEAPEST_PRICE", record.Int(27))
	r.Source, r.ID = "feed", "feed#1"
	f.Add(encodeRecords("feed", []*record.Record{r, record.New()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		source, recs, err := decodeRecords(data)
		if err != nil {
			return
		}
		enc := encodeRecords(source, recs)
		source2, recs2, err := decodeRecords(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if source2 != source || !bytes.Equal(encodeRecords(source2, recs2), enc) {
			t.Fatalf("round trip changed the batch from %q", source)
		}
	})
}

func FuzzParseMeta(f *testing.F) {
	f.Add(checkpointMeta{LastSeq: 7, Epoch: 2}.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseMeta(data)
		if err != nil {
			return
		}
		if again, err := parseMeta(m.encode()); err != nil || again != m {
			t.Fatalf("round trip of %+v gave %+v, %v", m, again, err)
		}
	})
}
