package seqio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/core"
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

var errNoRows = errors.New("seqio: csv contains no data rows")

// csvRows reads a CSV dataset's data rows, skipping a header row.
type csvRows struct {
	cr   *csv.Reader
	line int
	dim  int // from the first data row; -1 before it
}

func newCSVRows(r io.Reader) *csvRows {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for a better message
	cr.ReuseRecord = true
	return &csvRows{cr: cr, dim: -1}
}

// next reads the next data row, appends its coordinates to dst and returns
// its label and index; io.EOF after the last row.
func (c *csvRows) next(dst []float64) (label string, idx int, out []float64, err error) {
	for {
		rec, err := c.cr.Read()
		if err == io.EOF {
			return "", 0, dst, err
		}
		if err != nil {
			return "", 0, dst, fmt.Errorf("seqio: csv line %d: %w", c.line+1, err)
		}
		c.line++
		if len(rec) < 3 {
			return "", 0, dst, fmt.Errorf("seqio: csv line %d: %d fields, need >= 3", c.line, len(rec))
		}
		// Skip a header row.
		if c.line == 1 {
			if _, err := strconv.ParseFloat(rec[2], 64); err != nil {
				continue
			}
		}
		if c.dim == -1 {
			c.dim = len(rec) - 2
		}
		if len(rec)-2 != c.dim {
			return "", 0, dst, fmt.Errorf("seqio: csv line %d: %d coordinates, want %d", c.line, len(rec)-2, c.dim)
		}
		idx, err := strconv.Atoi(rec[1])
		if err != nil {
			return "", 0, dst, fmt.Errorf("seqio: csv line %d: bad index %q", c.line, rec[1])
		}
		for _, f := range rec[2:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return "", 0, dst, fmt.Errorf("seqio: csv line %d: bad coordinate %q", c.line, f)
			}
			dst = append(dst, v)
		}
		return rec[0], idx, dst, nil
	}
}

// ReadCSV imports a dataset from CSV into stored sequences. Consecutive
// rows with the same label form one sequence; dimensionality is derived
// from the first data row and enforced on the rest. A sequence's rows are
// decoded into one reused buffer and copied out once, at its end.
func ReadCSV(r io.Reader) ([]*core.Sequence, error) {
	rows := newCSVRows(r)
	var seqs []*core.Sequence
	var label string
	var buf []float64
	// flush stores the sequence buffered so far.
	flush := func() error {
		s, err := core.NewFlat(label, rows.dim, slices.Clone(buf))
		if err != nil {
			// ParseFloat reads "NaN" and "Inf"; no database takes them.
			return fmt.Errorf("seqio: csv sequence %q: %w", label, err)
		}
		s.ID = uint32(len(seqs))
		seqs = append(seqs, s)
		buf = buf[:0]
		return nil
	}
	var row []float64
	for {
		l, idx, next, err := rows.next(row[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		row = next
		// A new sequence begins on a label change or an index reset (the
		// latter covers datasets whose sequences share a label).
		if n := len(buf) / rows.dim; n == 0 || l != label || idx == 0 {
			if n > 0 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			if idx != 0 {
				return nil, fmt.Errorf("seqio: csv line %d: sequence %q starts at index %d, want 0", rows.line, l, idx)
			}
			label = l
		} else if idx != n {
			return nil, fmt.Errorf("seqio: csv line %d: sequence %q index %d, want %d", rows.line, l, idx, n)
		}
		buf = append(buf, row...)
	}
	if len(buf) == 0 {
		return nil, errNoRows
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return seqs, nil
}

// ReadCSVDim reads a CSV dataset up to its first data row and returns the
// dimension ReadCSV would derive from it.
func ReadCSVDim(r io.Reader) (int, error) {
	rows := newCSVRows(r)
	if _, _, _, err := rows.next(nil); err != nil {
		if err == io.EOF {
			err = errNoRows
		}
		return 0, err
	}
	return rows.dim, nil
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
