// Package seqio serializes sequence datasets in a compact little-endian
// binary format so the command-line tools can generate a corpus once and
// query it repeatedly. The format is versioned and self-describing:
//
//	magic    "MDSSEQS1" (8 bytes)
//	dim      u16
//	count    u32
//	sequences: count × {
//	    labelLen u16, label bytes,
//	    pointCount u32,
//	    pointCount × dim × f64
//	}
//
// The readers (Read, ReadCSV) return stored sequences: each one's
// coordinates decoded straight into one []float64 (core.NewFlat), with no
// header per point, which is the form a database keeps. ReadDim and
// ReadCSVDim read only as far as the dimension, for a caller that loads
// the body only if it needs it.
package seqio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/core"
)

const magic = "MDSSEQS1"

// ErrBadFormat indicates a corrupt or foreign file.
var ErrBadFormat = errors.New("seqio: bad format")

// limits guard against allocating absurd amounts on corrupt input.
const (
	maxSequences = 10_000_000
	maxPoints    = 100_000_000
	maxLabel     = 1 << 16
)

// chunk is the size of the buffers the binary codec moves bytes through:
// Write encodes into one such buffer and Read decodes out of its reader's,
// so neither stages a coordinate or a sequence in memory of its own.
const chunk = 1 << 16

// Write serializes the dataset to w. All sequences must share dim.
func Write(w io.Writer, seqs []*core.Sequence) error {
	if len(seqs) == 0 {
		return errors.New("seqio: empty dataset")
	}
	dim := seqs[0].Dim()
	buf := make([]byte, 0, chunk)
	// room writes buf out unless n more bytes fit in it.
	room := func(n int) error {
		if len(buf)+n <= cap(buf) {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seqs)))
	for i, s := range seqs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("seqio: sequence %d: %w", i, err)
		}
		if s.Dim() != dim {
			return fmt.Errorf("seqio: sequence %d has dim %d, dataset dim %d", i, s.Dim(), dim)
		}
		if len(s.Label) > maxLabel-1 {
			return fmt.Errorf("seqio: sequence %d label too long (%d bytes)", i, len(s.Label))
		}
		if err := room(2 + len(s.Label) + 4); err != nil {
			return err
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Label)))
		buf = append(buf, s.Label...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Len()))
		for j := range s.Len() {
			if err := room(8 * dim); err != nil {
				return err
			}
			for _, v := range s.At(j) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// headerLen is the size of the header: magic, dim u16, count u32.
const headerLen = len(magic) + 2 + 4

// parseHeader checks a header and returns its dimension and count.
func parseHeader(b []byte) (dim, count int, err error) {
	if string(b[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("%w: magic %q", ErrBadFormat, b[:len(magic)])
	}
	dim = int(binary.LittleEndian.Uint16(b[len(magic):]))
	count = int(binary.LittleEndian.Uint32(b[len(magic)+2:]))
	if dim == 0 || count == 0 || count > maxSequences {
		return 0, 0, fmt.Errorf("%w: dim=%d count=%d", ErrBadFormat, dim, count)
	}
	return dim, count, nil
}

// Read deserializes a dataset from r into stored sequences. Every field
// is decoded in place from the buffered reader's own buffer.
//
// What Read allocates is bounded by what the input has proved it holds,
// not by the counts its header claims: each list starts at no more than a
// chunk's worth of items and grows, at most doubling, as the data
// arrives. A short file claiming 10 M points fails with ErrBadFormat
// having asked for no more than a chunk.
func Read(r io.Reader) ([]*core.Sequence, error) {
	br := bufio.NewReaderSize(r, chunk)
	// next returns the next n ≤ chunk bytes, valid until the next call.
	next := func(n int) ([]byte, error) {
		b, err := br.Peek(n)
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		br.Discard(len(b))
		return b, err
	}
	b, err := next(headerLen)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	dim, count, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	seqs := make([]*core.Sequence, 0, min(count, chunk/8))
	for i := range count {
		if b, err = next(2); err != nil {
			return nil, fmt.Errorf("%w: sequence %d label length: %v", ErrBadFormat, i, err)
		}
		if b, err = next(int(binary.LittleEndian.Uint16(b))); err != nil {
			return nil, fmt.Errorf("%w: sequence %d label: %v", ErrBadFormat, i, err)
		}
		label := string(b)
		if b, err = next(4); err != nil {
			return nil, fmt.Errorf("%w: sequence %d point count: %v", ErrBadFormat, i, err)
		}
		n := binary.LittleEndian.Uint32(b)
		if n == 0 || n > maxPoints {
			return nil, fmt.Errorf("%w: sequence %d has %d points", ErrBadFormat, i, n)
		}
		want := int(n) * dim
		flat := make([]float64, min(want, chunk/8))
		for got := 0; got < want; got += len(b) / 8 {
			if got == len(flat) {
				k := min(want, 2*got) - got
				flat = slices.Grow(flat, k)[:got+k]
			}
			if b, err = next(8 * min(len(flat)-got, chunk/8)); err != nil {
				return nil, fmt.Errorf("%w: sequence %d points: %v", ErrBadFormat, i, err)
			}
			rest := flat[got:]
			for j := range len(b) / 8 {
				rest[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
		}
		// What Write refuses to write, Read refuses to return: a NaN or
		// ±Inf coordinate must not reach a database through -data.
		s, err := core.NewFlat(label, dim, flat)
		if err != nil {
			return nil, fmt.Errorf("%w: sequence %d: %w", ErrBadFormat, i, err)
		}
		s.ID = uint32(i)
		seqs = append(seqs, s)
	}
	return seqs, nil
}

// ReadDim reads only a dataset's header, the first 14 bytes, and returns
// its dimension: the header Read would accept, with no sequence decoded.
func ReadDim(r io.Reader) (int, error) {
	var b [headerLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	dim, _, err := parseHeader(b[:])
	return dim, err
}

// WriteFile serializes the dataset to path.
func WriteFile(path string, seqs []*core.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, seqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile deserializes the dataset at path.
func ReadFile(path string) ([]*core.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
