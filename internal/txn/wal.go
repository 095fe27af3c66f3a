package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// WAL record payload format (the payload of one pager.Log record; the
// log frames it with a length prefix and CRC):
//
//	lsn   u64
//	nops  u32
//	nops × op:
//	  'A'  labelLen u16, label bytes, npts u32, npts × dim × f64
//	  'P'  id u32, npts u32, npts × dim × f64
//	  'R'  id u32
//
// One record is one commit: the log's CRC makes it all-or-nothing, so a
// multi-op transaction is torn-write-proof by construction. Point
// dimensionality is not stored per record — it is a database constant
// recorded in the base snapshot metadata.

// ErrBadRecord indicates a WAL record that passed the log's CRC but does
// not decode — a foreign or version-skewed file.
var ErrBadRecord = errors.New("txn: bad WAL record")

// Format limits. The commit path enforces maxRecOps and maxLabelLen
// before applying a request (see applyReq/partitionFor), so every
// acknowledged commit encodes into a decodable record; the decoder
// re-checks them to guard allocations on corrupt input.
const (
	maxRecOps    = 1 << 20   // ops per commit record
	maxLabelLen  = 1<<16 - 1 // label bytes (stored as u16)
	maxRecPoints = 1 << 28
)

// recordSize computes the encoded payload size of a commit, so the
// committer can reject a record the log would refuse (pager.MaxLogRecord)
// before applying any of its ops. Requires every opAdd to carry a
// partitioned sequence (true on the commit path; replay never re-encodes).
func recordSize(ops []op, dim int) int {
	n := 8 + 4
	for _, o := range ops {
		switch o.kind {
		case opAdd:
			n += 1 + 2 + len(o.g.Seq.Label) + 4 + o.g.Seq.Len()*dim*8
		case opAppend:
			n += 1 + 4 + 4 + len(o.pts)*dim*8
		case opRemove:
			n += 1 + 4
		}
	}
	return n
}

// encodeRecord serializes one commit's ops under the given LSN.
func encodeRecord(lsn uint64, ops []op, dim int) []byte {
	buf := make([]byte, 0, recordSize(ops, dim))
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
	for _, o := range ops {
		buf = append(buf, o.kind)
		switch o.kind {
		case opAdd:
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.g.Seq.Label)))
			buf = append(buf, o.g.Seq.Label...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o.g.Seq.Len()))
			buf = appendFloats(buf, o.g.Seq.Flat())
		case opAppend:
			buf = binary.LittleEndian.AppendUint32(buf, o.id)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.pts)))
			buf = appendPoints(buf, o.pts)
		case opRemove:
			buf = binary.LittleEndian.AppendUint32(buf, o.id)
		}
	}
	return buf
}

// appendPoints serializes points as packed little-endian float64s.
func appendPoints(buf []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		buf = appendFloats(buf, p)
	}
	return buf
}

// appendFloats serializes coordinates as packed little-endian float64s.
func appendFloats(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeRecord parses a record payload back into its LSN and ops. Adds
// come back unpartitioned (g == nil, seqFromLog a stored sequence over
// one decoded []float64); the caller partitions them. Appends keep their
// points in input form, which AppendToSegmented takes.
func decodeRecord(payload []byte, dim int) (lsn uint64, ops []op, err error) {
	r := recReader{buf: payload}
	lsn = r.u64()
	nops := int(r.u32())
	// The smallest op ('R') is 5 bytes, so a count the payload cannot hold
	// is refused before it sizes an allocation.
	if r.err != nil || nops > maxRecOps || nops*5 > len(payload)-r.off {
		return 0, nil, ErrBadRecord
	}
	ops = make([]op, 0, nops)
	for i := 0; i < nops; i++ {
		kind := r.u8()
		switch kind {
		case opAdd:
			label := string(r.bytes(int(r.u16())))
			npts := int(r.u32())
			flat := r.floats(npts, dim)
			if r.err != nil {
				return 0, nil, r.err
			}
			s, serr := core.NewFlat(label, dim, flat)
			if serr != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadRecord, serr)
			}
			ops = append(ops, op{kind: opAdd, seqFromLog: s})
		case opAppend:
			id := r.u32()
			npts := int(r.u32())
			pts := r.points(npts, dim)
			if r.err != nil {
				return 0, nil, r.err
			}
			ops = append(ops, op{kind: opAppend, id: id, pts: pts})
		case opRemove:
			ops = append(ops, op{kind: opRemove, id: r.u32()})
		default:
			return 0, nil, fmt.Errorf("%w: op kind %#x", ErrBadRecord, kind)
		}
	}
	if r.err != nil || len(r.buf) != r.off {
		return 0, nil, ErrBadRecord
	}
	return lsn, ops, nil
}

// recReader is a bounds-checked little-endian cursor over a payload.
type recReader struct {
	buf []byte
	off int
	err error
}

func (r *recReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.err = ErrBadRecord
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *recReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *recReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *recReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *recReader) bytes(n int) []byte { return r.take(n) }

// floats decodes n points of dim coordinates into one run.
func (r *recReader) floats(n, dim int) []float64 {
	if n > maxRecPoints || n*dim > maxRecPoints {
		r.err = ErrBadRecord
		return nil
	}
	raw := r.take(n * dim * 8)
	if raw == nil {
		return nil
	}
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return flat
}

// points decodes n points of dim coordinates as views of one run.
func (r *recReader) points(n, dim int) []geom.Point {
	flat := r.floats(n, dim)
	if flat == nil {
		return nil
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point(flat[i*dim : (i+1)*dim])
	}
	return pts
}
