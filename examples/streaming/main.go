// Streaming demonstrates live ingestion: video frames arrive in batches,
// each batch is appended to its stream's stored sequence (repartitioning
// only the tail), and a standing query — "alert me when something similar
// to this scene appears" — runs after every batch. Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"

	mdseq "repro"
	"repro/internal/video"
)

func main() {
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(777))
	cfg := video.DefaultStreamConfig()

	// Render a "future broadcast" up front so we know where the scene of
	// interest will eventually appear; the database sees it only in
	// batches.
	const totalFrames = 600
	broadcast, err := video.GenerateStream(rng, totalFrames, cfg)
	if err != nil {
		log.Fatal(err)
	}
	features := video.ExtractSequence(broadcast, video.MeanColorRGB)

	// The standing query: one full shot from the middle of the broadcast.
	shotIdx := len(broadcast.ShotStarts) / 2
	sStart := broadcast.ShotStarts[shotIdx]
	sEnd := totalFrames
	if shotIdx+1 < len(broadcast.ShotStarts) {
		sEnd = broadcast.ShotStarts[shotIdx+1]
	}
	watch := &mdseq.Sequence{Label: "watched-scene", Points: features.Slice(sStart, sEnd)}
	fmt.Printf("standing query: %d-frame scene that will air at frames [%d,%d)\n\n",
		watch.Len(), sStart, sEnd)

	// Ingest in 50-frame batches, querying after each.
	const batch = 50
	first := &mdseq.Sequence{Label: "live-feed", Points: features.Slice(0, batch)}
	id, err := db.Add(first)
	if err != nil {
		log.Fatal(err)
	}
	alerted := false
	for off := batch; off < totalFrames; off += batch {
		end := off + batch
		if end > totalFrames {
			end = totalFrames
		}
		if err := db.AppendPoints(id, features.Slice(off, end)); err != nil {
			log.Fatal(err)
		}
		matches, _, err := db.Search(watch, 0.04)
		if err != nil {
			log.Fatal(err)
		}
		status := "no match yet"
		for _, m := range matches {
			if m.SeqID == id {
				status = fmt.Sprintf("MATCH at frame ranges %v", m.Interval.String())
				if !alerted {
					fmt.Printf("batch ending at frame %4d: first alert — %s\n", end, status)
					alerted = true
				}
			}
		}
		if !alerted {
			fmt.Printf("batch ending at frame %4d: %s\n", end, status)
		}
	}

	g := db.Segmented(id)
	fmt.Printf("\nfinal stream: %d frames in %d MBRs; scene aired at [%d,%d)\n",
		g.Seq.Len(), len(g.MBRs), sStart, sEnd)
	if !alerted {
		fmt.Println("WARNING: the scene was never detected")
	}
}
