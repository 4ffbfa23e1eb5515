package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/datagen"
	"repro/internal/record"
	"repro/internal/store"
)

// WAL event kinds.
const (
	evText    byte = 1 // a batch of web-text fragments
	evRecords byte = 2 // a batch of structured records from one source
)

// encodeText serializes a fragment batch: count, then (url, text) pairs.
func encodeText(frags []datagen.Fragment) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(frags)))
	for _, f := range frags {
		putString(&buf, f.URL)
		putString(&buf, f.Text)
	}
	return buf.Bytes()
}

func decodeText(payload []byte) ([]datagen.Fragment, error) {
	r := bytes.NewReader(payload)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("live: text event count: %w", err)
	}
	// n is untrusted: every fragment takes at least two bytes, so the
	// remaining payload bounds the allocation.
	frags := make([]datagen.Fragment, 0, min(n, uint64(r.Len())))
	for i := uint64(0); i < n; i++ {
		url, err := getString(r)
		if err != nil {
			return nil, fmt.Errorf("live: text event url: %w", err)
		}
		text, err := getString(r)
		if err != nil {
			return nil, fmt.Errorf("live: text event body: %w", err)
		}
		frags = append(frags, datagen.Fragment{URL: url, Text: text})
	}
	return frags, nil
}

// encodeRecords serializes a record batch: source name, count, then per
// record (source, id, doc bytes) — the doc codec carries the typed fields.
func encodeRecords(source string, recs []*record.Record) []byte {
	var buf bytes.Buffer
	putString(&buf, source)
	putUvarint(&buf, uint64(len(recs)))
	for _, r := range recs {
		encodeRecordTo(&buf, r)
	}
	return buf.Bytes()
}

func decodeRecords(payload []byte) (string, []*record.Record, error) {
	r := bytes.NewReader(payload)
	source, err := getString(r)
	if err != nil {
		return "", nil, fmt.Errorf("live: record event source: %w", err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("live: record event count: %w", err)
	}
	recs := make([]*record.Record, 0, min(n, uint64(r.Len()))) // n is untrusted, as in decodeText
	for i := uint64(0); i < n; i++ {
		rec, err := decodeRecordFrom(r)
		if err != nil {
			return "", nil, fmt.Errorf("live: record event %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return source, recs, nil
}

// encodeRecordTo writes one flat record as (source, id, doc bytes), the doc
// built from the record's scalar fields so value kinds round-trip.
func encodeRecordTo(buf *bytes.Buffer, r *record.Record) {
	putString(buf, r.Source)
	putString(buf, r.ID)
	data := store.EncodeDoc(store.FromRecord(r))
	putUvarint(buf, uint64(len(data)))
	buf.Write(data)
}

func decodeRecordFrom(r *bytes.Reader) (*record.Record, error) {
	source, err := getString(r)
	if err != nil {
		return nil, err
	}
	id, err := getString(r)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("record doc length %d exceeds payload", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	d, err := store.DecodeDoc(data)
	if err != nil {
		return nil, err
	}
	rec := d.ToRecord()
	rec.Source = source
	rec.ID = id
	return rec, nil
}

func putUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func getString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n == 0 {
		// Read on a zero-length buffer at end-of-stream reports io.EOF;
		// an empty string is a valid value, not an error.
		return "", nil
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds payload", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
