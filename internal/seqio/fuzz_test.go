package seqio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzRead asserts the binary reader never panics and never accepts input
// that fails to round-trip: whatever it parses must re-serialize to the
// bytes it was read from.
func FuzzRead(f *testing.F) {
	// Seed with a valid dataset, its truncations, and junk.
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := Write(&buf, randomDataset(rng, 3, 2)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("MDSSEQS1"))
	f.Add([]byte{})
	f.Add([]byte("garbage input that is not a dataset at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		seqs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be internally consistent and re-writable.
		var out bytes.Buffer
		if err := Write(&out, seqs); err != nil {
			t.Fatalf("parsed dataset fails to serialize: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("parsed dataset re-serializes to other bytes")
		}
	})
}

// FuzzReadCSV asserts the CSV reader never panics and its accepted output
// is always stored and valid.
func FuzzReadCSV(f *testing.F) {
	f.Add("label,index,x1\na,0,0.5\na,1,0.6\n")
	f.Add("a,0,0.1,0.2\nb,0,0.3,0.4\n")
	f.Add("")
	f.Add("a,zero,nan\n")
	f.Add("a,0,1e309\n")

	f.Fuzz(func(t *testing.T, data string) {
		seqs, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range seqs {
			if err := s.Validate(); err != nil || s.Points != nil {
				t.Fatalf("accepted sequence %d: input form %v, invalid: %v", i, s.Points != nil, err)
			}
		}
	})
}
