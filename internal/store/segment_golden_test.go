package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestWriteSegmentsGolden pins the v2 segment file byte for byte: a fixed
// corpus per dimensionality — random walks plus a sequence of negative,
// large and non-float32-representable coordinates, whose quantized bounds
// round outward — is written and its SHA-256 compared with the digest
// recorded when the writer still copied a stored float32 sidecar into
// sections 7 and 8. The writer now derives those sections from Lo/Hi as
// it emits them; a moved digest means the file format moved.
func TestWriteSegmentsGolden(t *testing.T) {
	want := map[int]string{
		2: "892be2090a585ffd438b232963ff99c929e11c25febaed827203501ee77193fd",
		3: "8b559aa6f7bd66ce24f84a8d0eeb1bdafad8891d458604fb93a05445f6d460e7",
		8: "1182f9a2d5e600ad5f0fbab355b1be1cb26c82413c9d250c49128f3e57654f18",
	}
	for _, dim := range []int{2, 3, 8} {
		seqs := corpusSeqs(int64(40+dim), 9, dim)
		odd := make([]geom.Point, 12)
		for i := range odd {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = float64((i*7+k*3)%11-5)*1.1e-3 + float64(k)*-3.7e9/float64(i+1) + 0.1
			}
			odd[i] = p
		}
		seqs = append(seqs, &core.Sequence{Label: "odd", Points: odd})
		cfg := core.DefaultPartitionConfig()
		segs, err := core.PartitionAll(seqs, dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), segFile)
		if err := WriteSegments(path, dim, cfg, segs); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(raw))
		if got != want[dim] {
			t.Errorf("dim %d: segment file digest %s, recorded %s", dim, got, want[dim])
		}
	}
}
