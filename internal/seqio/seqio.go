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
package seqio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
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

// Write serializes the dataset to w. All sequences must share dim.
func Write(w io.Writer, seqs []*core.Sequence) error {
	if len(seqs) == 0 {
		return errors.New("seqio: empty dataset")
	}
	dim := seqs[0].Dim()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(dim)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(seqs))); err != nil {
		return err
	}
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
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(s.Label))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.Label); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(s.Len())); err != nil {
			return err
		}
		for i := range s.Len() {
			for _, v := range s.At(i) {
				if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a dataset from r.
func Read(r io.Reader) ([]*core.Sequence, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, head)
	}
	var dim uint16
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: dim: %v", ErrBadFormat, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	if dim == 0 || count == 0 || count > maxSequences {
		return nil, fmt.Errorf("%w: dim=%d count=%d", ErrBadFormat, dim, count)
	}
	seqs := make([]*core.Sequence, 0, count)
	for i := uint32(0); i < count; i++ {
		var labelLen uint16
		if err := binary.Read(br, binary.LittleEndian, &labelLen); err != nil {
			return nil, fmt.Errorf("%w: sequence %d label length: %v", ErrBadFormat, i, err)
		}
		label := make([]byte, labelLen)
		if _, err := io.ReadFull(br, label); err != nil {
			return nil, fmt.Errorf("%w: sequence %d label: %v", ErrBadFormat, i, err)
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("%w: sequence %d point count: %v", ErrBadFormat, i, err)
		}
		if n == 0 || n > maxPoints {
			return nil, fmt.Errorf("%w: sequence %d has %d points", ErrBadFormat, i, n)
		}
		// One flat allocation per sequence, re-sliced per point.
		flat := make([]float64, int(n)*int(dim))
		raw := make([]byte, 8*len(flat))
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("%w: sequence %d points: %v", ErrBadFormat, i, err)
		}
		for j := range flat {
			flat[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		pts := make([]geom.Point, n)
		for j := range pts {
			pts[j] = geom.Point(flat[j*int(dim) : (j+1)*int(dim) : (j+1)*int(dim)])
		}
		s := &core.Sequence{ID: i, Label: string(label), Points: pts}
		// What Write refuses to write, Read refuses to return: a NaN or
		// ±Inf coordinate must not reach a database through -data.
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("%w: sequence %d: %w", ErrBadFormat, i, err)
		}
		seqs = append(seqs, s)
	}
	return seqs, nil
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
