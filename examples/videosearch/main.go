// Videosearch demonstrates the paper's motivating use case: index a
// library of video streams by per-frame color features, query with a short
// scene, and play back only the matching sub-streams — "we do not need to
// browse the whole stream of a selected video, but just browse the
// sub-streams found by the process."
//
// Frames are synthesized and rendered as rasters, then reduced to mean-RGB
// feature points, exercising the full extraction pipeline. Run with:
//
//	go run ./examples/videosearch
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

	// Build a small library of synthetic "programs".
	rng := rand.New(rand.NewSource(2000))
	cfg := video.DefaultStreamConfig()
	var library []entry
	for i := 0; i < 40; i++ {
		frames := 150 + rng.Intn(250)
		st, err := video.GenerateStream(rng, frames, cfg)
		if err != nil {
			log.Fatal(err)
		}
		seq := video.ExtractSequence(st, video.MeanColorRGB)
		seq.Label = fmt.Sprintf("program-%02d", i)
		if _, err := db.Add(seq); err != nil {
			log.Fatal(err)
		}
		library = append(library, entry{st, seq})
	}
	fmt.Printf("library: %d programs, %d frames total, indexed as %d MBRs\n",
		len(library), totalFrames(library), db.NumMBRs())

	// The "scene we remember": one shot from program-25.
	target := library[25]
	shot := 2
	start := target.stream.ShotStarts[shot]
	end := target.seq.Len()
	if shot+1 < len(target.stream.ShotStarts) {
		end = target.stream.ShotStarts[shot+1]
	}
	scene := &mdseq.Sequence{Label: "scene", Points: target.seq.Slice(start, end)}
	fmt.Printf("\nquery scene: %s frames [%d,%d) — %d frames\n",
		target.seq.Label, start, end, scene.Len())

	const eps = 0.05
	matches, stats, err := db.Search(scene, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: %d candidates after Dmbr, %d programs matched (eps=%.2f)\n\n",
		stats.CandidatesDmbr, stats.MatchesDnorm, eps)

	for _, m := range matches {
		fmt.Printf("%s — play only these frame ranges:\n", m.Seq.Label)
		for _, r := range m.Interval.Ranges() {
			secFrom, secTo := float64(r.Start)/25, float64(r.End)/25 // 25 fps
			fmt.Printf("  frames [%4d,%4d)  ≈ %5.1fs–%5.1fs\n", r.Start, r.End, secFrom, secTo)
		}
		if m.SeqID == target.seq.ID {
			covered := m.Interval.Contains(start) && m.Interval.Contains(end-1)
			fmt.Printf("  (source shot covered by the solution interval: %v)\n", covered)
		}
	}
}

type entry struct {
	stream *video.Stream
	seq    *mdseq.Sequence
}

func totalFrames(lib []entry) int {
	var n int
	for _, e := range lib {
		n += e.seq.Len()
	}
	return n
}
