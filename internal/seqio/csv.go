package seqio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
)

// CSV interchange format, one point per row:
//
//	label,index,x1,x2,...,xn
//
// Rows of one sequence share a label and appear with strictly increasing
// indices (0-based); sequences appear contiguously. A header row is
// written on export and tolerated (and skipped) on import when its third
// field does not parse as a number.

// WriteCSV exports a dataset as CSV.
func WriteCSV(w io.Writer, seqs []*core.Sequence) error {
	if len(seqs) == 0 {
		return errors.New("seqio: empty dataset")
	}
	cw := csv.NewWriter(w)
	dim := seqs[0].Dim()
	header := []string{"label", "index"}
	for k := 0; k < dim; k++ {
		header = append(header, fmt.Sprintf("x%d", k+1))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 2+dim)
	for i, s := range seqs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("seqio: sequence %d: %w", i, err)
		}
		if s.Dim() != dim {
			return fmt.Errorf("seqio: sequence %d has dim %d, dataset dim %d", i, s.Dim(), dim)
		}
		label := s.Label
		if label == "" {
			label = fmt.Sprintf("seq-%04d", i)
		}
		for j := range s.Len() {
			p := s.At(j)
			row[0] = label
			row[1] = strconv.Itoa(j)
			for k, v := range p {
				row[2+k] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV imports a dataset from CSV. Consecutive rows with the same label
// form one sequence; dimensionality is derived from the first data row and
// enforced on the rest.
func ReadCSV(r io.Reader) ([]*core.Sequence, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for a better message
	var seqs []*core.Sequence
	var cur *core.Sequence
	dim := -1
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("seqio: csv line %d: %w", line+1, err)
		}
		line++
		if len(rec) < 3 {
			return nil, fmt.Errorf("seqio: csv line %d: %d fields, need >= 3", line, len(rec))
		}
		// Skip a header row.
		if line == 1 {
			if _, err := strconv.ParseFloat(rec[2], 64); err != nil {
				continue
			}
		}
		if dim == -1 {
			dim = len(rec) - 2
		}
		if len(rec)-2 != dim {
			return nil, fmt.Errorf("seqio: csv line %d: %d coordinates, want %d", line, len(rec)-2, dim)
		}
		label := rec[0]
		idx, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("seqio: csv line %d: bad index %q", line, rec[1])
		}
		p := make(geom.Point, dim)
		for k := 0; k < dim; k++ {
			v, err := strconv.ParseFloat(rec[2+k], 64)
			if err != nil {
				return nil, fmt.Errorf("seqio: csv line %d: bad coordinate %q", line, rec[2+k])
			}
			p[k] = v
		}
		// A new sequence begins on a label change or an index reset (the
		// latter covers datasets whose sequences share a label).
		if cur == nil || cur.Label != label || idx == 0 {
			if cur != nil {
				seqs = append(seqs, cur)
			}
			if idx != 0 {
				return nil, fmt.Errorf("seqio: csv line %d: sequence %q starts at index %d, want 0", line, label, idx)
			}
			cur = &core.Sequence{Label: label}
		} else if idx != cur.Len() {
			return nil, fmt.Errorf("seqio: csv line %d: sequence %q index %d, want %d", line, label, idx, cur.Len())
		}
		cur.Points = append(cur.Points, p)
	}
	if cur != nil {
		seqs = append(seqs, cur)
	}
	if len(seqs) == 0 {
		return nil, errors.New("seqio: csv contains no data rows")
	}
	for i := range seqs {
		seqs[i].ID = uint32(i)
		// ParseFloat reads "NaN" and "Inf"; no database takes them.
		if err := seqs[i].Validate(); err != nil {
			return nil, fmt.Errorf("seqio: csv sequence %q: %w", seqs[i].Label, err)
		}
	}
	return seqs, nil
}

// WriteCSVFile exports to a file.
func WriteCSVFile(path string, seqs []*core.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, seqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSVFile imports from a file.
func ReadCSVFile(path string) ([]*core.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
