// Checkpoint demonstrates the store persistence layer: run the pipeline,
// checkpoint both sharded namespaces to disk, recover them into a fresh
// pipeline, and show that queries agree — plus event-log recovery with a
// torn-tail write.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"

	datatamer "repro"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "datatamer-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Run the pipeline, then checkpoint.
	ctx := context.Background()
	opts := []datatamer.Option{datatamer.WithFragments(500), datatamer.WithSources(5), datatamer.WithSeed(3)}
	tamer, err := datatamer.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := tamer.SaveStoresCtx(ctx, dir); err != nil {
		log.Fatal(err)
	}
	before := tamer.EntityStats()
	fmt.Printf("checkpointed %d instances / %d entities to %s\n",
		tamer.InstanceStats().Count, before.Count, dir)

	// Recover into a brand-new pipeline; LoadStores replaces its stores.
	recovered, err := datatamer.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := recovered.LoadStores(dir); err != nil {
		log.Fatal(err)
	}
	after := recovered.EntityStats()
	fmt.Printf("recovered  %d instances / %d entities (indexes rebuilt: %d)\n",
		recovered.InstanceStats().Count, after.Count, after.NIndexes)

	top, err := recovered.TopDiscussed(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top discussed shows from the recovered store:")
	for i, d := range top {
		fmt.Printf("  %d. %s (%d mentions)\n", i+1, d.Name, d.Mentions)
	}

	// Event-log recovery with a torn tail: only complete frames replay.
	// Each event carries a document id and the encoded document.
	var logBuf bytes.Buffer
	events, err := store.NewEventLog(&logBuf)
	if err != nil {
		log.Fatal(err)
	}
	doc := store.NewDoc().Set("name", store.Str("Matilda")).Set("type", store.Str("Movie"))
	for id := uint64(1); id <= 2; id++ {
		if _, err := events.Append(1, append(binary.AppendUvarint(nil, id), store.EncodeDoc(doc)...)); err != nil {
			log.Fatal(err)
		}
	}
	if err := events.Flush(); err != nil {
		log.Fatal(err)
	}
	torn := logBuf.Bytes()[:logBuf.Len()-7] // simulate a crash mid-write

	coll := store.Open("dt", 0).Collection("logged")
	stats, err := store.ReplayEventLog(bytes.NewReader(torn), 0, func(_ uint64, _ byte, payload []byte) error {
		id, n := binary.Uvarint(payload)
		d, err := store.DecodeDoc(payload[n:])
		if err != nil {
			return err
		}
		coll.ApplyReplay(int64(id), d)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event-log replay after torn write: %d events applied, truncated=%v, count=%d\n",
		stats.Applied, stats.Truncated, coll.Count())
}
