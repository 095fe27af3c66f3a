package txn

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// seedOps is one commit of every op kind at dimension dim: two adds (one
// labeled), an append and a removal.
func seedOps(f *testing.F, rng *rand.Rand, dim int) []op {
	f.Helper()
	var ops []op
	for _, label := range []string{"", "clip-7"} {
		s := randSeq(rng, dim, 3+rng.Intn(5))
		s.Label = label
		g, err := core.NewSegmented(s, core.DefaultPartitionConfig())
		if err != nil {
			f.Fatal(err)
		}
		ops = append(ops, op{kind: opAdd, g: g})
	}
	return append(ops,
		op{kind: opAppend, id: 1, pts: randSeq(rng, dim, 2).Points},
		op{kind: opRemove, id: 0})
}

// FuzzDecodeRecord feeds arbitrary payloads to the WAL record decoder at
// dimensions 1–4. It must never panic, every refusal must be
// ErrBadRecord, and a record it accepts re-encodes to the same bytes. The
// seeds are encoded records of every op kind at every dimension, and
// every truncation and single-bit flip of one record — the damage
// TestWALTortureTruncate and TestWALTortureCorrupt deal a whole log.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(32))
	for dim := 1; dim <= 4; dim++ {
		ops := seedOps(f, rng, dim)
		for i := range ops {
			f.Add(encodeRecord(uint64(10+i), ops[i:i+1], dim), uint8(dim-1))
		}
		f.Add(encodeRecord(99, ops, dim), uint8(dim-1))
	}
	one := encodeRecord(7, seedOps(f, rng, 2), 2)
	for n := 0; n < len(one); n++ {
		f.Add(one[:n], uint8(1))
	}
	for off := range one {
		mut := bytes.Clone(one)
		mut[off] ^= 1 << uint(off%8)
		f.Add(mut, uint8(1))
	}
	f.Fuzz(func(t *testing.T, payload []byte, d uint8) {
		dim := int(d%4) + 1
		lsn, ops, err := decodeRecord(payload, dim)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("refusal %v is not ErrBadRecord", err)
			}
			return
		}
		for i := range ops {
			if ops[i].kind == opAdd {
				ops[i].g = &core.Segmented{Seq: ops[i].seqFromLog}
			}
		}
		if re := encodeRecord(lsn, ops, dim); !bytes.Equal(re, payload) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", re, payload)
		}
	})
}

// TestDecodeAddIsStored: a WAL add decodes into a stored sequence — one
// run of coordinates, no header per point — equal to what was committed,
// in allocations that do not grow with its point count.
func TestDecodeAddIsStored(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	allocs := func(n int) float64 {
		s := randSeq(rng, 3, n)
		s.Label = "clip"
		g, err := core.NewSegmented(s, core.DefaultPartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		payload := encodeRecord(5, []op{{kind: opAdd, g: g}}, 3)
		_, ops, err := decodeRecord(payload, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := ops[0].seqFromLog
		if got.Points != nil || got.Label != s.Label || got.Len() != n || !slices.Equal(got.Flat(), g.Flat) {
			t.Fatalf("%d points: decoded add is not the stored sequence committed (input form %v)", n, got.Points != nil)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := decodeRecord(payload, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("decoding one add: %v allocations at 10 points, %v at 1000", small, large)
	if small != large || small != decodeAddAllocs {
		t.Errorf("decoding one add makes %v allocations at 10 points and %v at 1000; want %d for both", small, large, decodeAddAllocs)
	}
}

// decodeAddAllocs is what one add record decodes in: the op list, the
// label, the coordinates and the Sequence (5 with a []geom.Point slab).
const decodeAddAllocs = 4
