package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// v2 segment file (segments.sg2) — the zero-copy columnar store format.
//
// The file is one 80-byte header followed by sections in a fixed order,
// every number little-endian:
//
//	header:
//	  [ 0: 8)  magic "MDSSEG2\0"
//	  [ 8:12)  version u32 (= 2)
//	  [12:16)  dim u32
//	  [16:24)  nseqs u64
//	  [24:32)  npoints u64   (sum of sequence lengths)
//	  [32:40)  nmbrs u64     (sum of partition MBR counts)
//	  [40:48)  queryExtent f64 bits (partition config)
//	  [48:56)  maxPoints u64        (partition config)
//	  [56:60)  treeM u32    (STR fanout of the packed-tree sections; 0 = absent)
//	  [60:64)  nleaves u32
//	  [64:72)  labelBytes u64
//	  [72:76)  reserved u32 (0)
//	  [76:80)  headerCRC u32 — CRC-32C of bytes [0:76)
//
//	section := id u32 | crc u32 | payloadLen u64 | payload | zero pad to 8
//	  (crc is CRC-32C of the unpadded payload)
//
//	1 seqdir   nseqs × {pointCount u32, mbrCount u32, labelLen u32, 0 u32}
//	2 labels   labelBytes of concatenated label bytes (seqdir order)
//	3 points   npoints × dim f64 — every sequence's flat point array,
//	           concatenated in id order (sequence i's point k at
//	           flat[k*dim:(k+1)*dim])
//	4 mbrdir   nmbrs × {start u32, end u32} — half-open point ranges,
//	           relative to the owning sequence, concatenated in id order
//	5 lo       nmbrs × dim f64 — MBR lower bounds, concatenated
//	6 hi       nmbrs × dim f64 — MBR upper bounds, concatenated
//	7 qlo      nmbrs × dim f32 — quantized lower bounds (lo rounded
//	           toward −∞; see geom.QuantizeDown), derived from section 5
//	           when written and checksummed but not read back
//	8 qhi      nmbrs × dim f32 — quantized upper bounds (hi rounded
//	           toward +∞), derived from section 6 likewise
//	9 leafdir  nleaves × u32 — entries per packed R*-tree leaf (iff treeM > 0)
//	10 leafrefs nmbrs × u64 — rtree refs in STR leaf order; the id half of
//	           each ref is the sequence's *position* (0-based, dense), not
//	           a persisted database id (iff treeM > 0)
//
// Sections 3, 5 and 6 are exactly the in-memory representation of the
// Segmented columnar arrays (Flat/Lo/Hi) on a little-endian host, and
// every section payload starts 8-byte aligned (80-byte header, 16-byte
// section headers, 8-padded payloads), so the loader aliases them in
// place — no per-sequence deserialization. No search reads the quantized
// bounds of sections 7 and 8; they are in the layout, and the reader size-
// and CRC-checks them like every other section. Sections 9/10 carry the STR leaf
// grouping of the R*-tree so reloading packs the tree bottom-up without
// re-sorting (rtree.BulkLoadLeaves).
const (
	segFile      = "segments.sg2"
	segMagic     = "MDSSEG2\x00"
	segVersion   = 2
	segHeaderLen = 80
	secHeaderLen = 16

	secSeqDir   = 1
	secLabels   = 2
	secPoints   = 3
	secMBRDir   = 4
	secLo       = 5
	secHi       = 6
	secQuantLo  = 7
	secQuantHi  = 8
	secLeafDir  = 9
	secLeafRefs = 10

	// Sanity caps: far above anything this system handles, low enough
	// that a corrupt header cannot drive allocations or offset arithmetic
	// anywhere interesting.
	maxSegSeqs   = 1 << 31
	maxSegPoints = 1 << 40
	maxSegLabels = 1 << 40
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Corpus is a decoded v2 segment file: the partitioned corpus in its
// columnar form plus, when the file carries one, the packed R*-tree
// leaf grouping. Segs are in file (position) order; any sequence ids
// embedded in Leaves refer to positions in Segs.
type Corpus struct {
	// Dim is the dimensionality of every sequence.
	Dim int
	// Config is the partitioning configuration the segments were built
	// under.
	Config core.PartitionConfig
	// Segs holds the sequences with their partitioning, columnar arrays
	// aliased into the file's buffer on little-endian hosts.
	Segs []*core.Segmented
	// Leaves is the STR leaf grouping for rtree.BulkLoadLeaves, or nil
	// when the file has no packed-tree sections.
	Leaves [][]rtree.Ref
	// TreeM is the R*-tree fanout Leaves was computed for (0 when absent);
	// a loader whose tree uses a different fanout must ignore Leaves.
	TreeM int
	// Mapped reports whether the backing buffer is a retained mmap of the
	// file rather than a private read.
	Mapped bool
}

// secSpec pairs a section id with its payload producer and exact size.
type secSpec struct {
	id   uint32
	size uint64
	// emit streams the payload as consecutive chunks; it is called twice
	// (checksum pass, write pass) and must produce identical bytes.
	emit func(func([]byte))
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// WriteSegments writes the partitioned corpus as one v2 segment file at
// path, computing the packed STR leaf grouping for the default R*-tree
// fanout, and fsyncs the file before returning. Segs must be non-empty
// and uniform in dimensionality; any Seq.ID values are ignored — refs in
// the tree sections use dense positions.
func WriteSegments(path string, dim int, cfg core.PartitionConfig, segs []*core.Segmented) error {
	leaves, treeM, err := packLeaves(segs, dim)
	if err != nil {
		return err
	}
	return writeSegmentsFile(path, dim, cfg, segs, leaves, treeM)
}

// LoadSegments reads and validates the v2 segment file at path, every
// section checksummed and any structural violation failing with
// ErrBadStore, and calls build with its corpus while the points section,
// most of the file, is still being checked on another goroutine: build
// must not read a
// coordinate (a bulk load from the stored leaves reads none). It returns
// what build made only once the check has passed. When the check fails it
// closes what build made, then releases the file's mapping and the file,
// and returns the check's error ahead of any error of build's. A build
// that fails closes what it made itself.
func LoadSegments[T io.Closer](path string, build func(*Corpus) (T, error)) (T, error) {
	var none T
	c, pc, err := openSegmentsFile(path)
	if err != nil {
		return none, err
	}
	built, berr := build(c)
	if err := pc.finish(berr, func() {
		if berr == nil {
			built.Close()
		}
	}); err != nil {
		return none, err
	}
	return built, nil
}

// writeSegmentsFile serializes segs (with a precomputed leaf grouping)
// to path. leaves nil/empty omits the tree sections.
func writeSegmentsFile(path string, dim int, cfg core.PartitionConfig, segs []*core.Segmented, leaves [][]rtree.Ref, treeM int) error {
	if len(segs) == 0 {
		return fmt.Errorf("store: refusing to write an empty segment file")
	}
	if dim < 1 || dim > maxMetaDims {
		return fmt.Errorf("store: segment dim %d out of range", dim)
	}
	var npoints, nmbrs, labelBytes uint64
	for i, g := range segs {
		if g == nil || g.Seq == nil {
			return fmt.Errorf("store: nil segment %d", i)
		}
		if g.Seq.Dim() != dim {
			return fmt.Errorf("store: segment %d dim %d, want %d", i, g.Seq.Dim(), dim)
		}
		n, r := g.Seq.Len(), len(g.MBRs)
		if n < 1 || r < 1 || uint64(n) > math.MaxUint32 || uint64(r) > math.MaxUint32 {
			return fmt.Errorf("store: segment %d has %d points, %d MBRs", i, n, r)
		}
		if uint64(len(g.Seq.Label)) > math.MaxUint32 {
			return fmt.Errorf("store: segment %d label too long", i)
		}
		npoints += uint64(n)
		nmbrs += uint64(r)
		labelBytes += uint64(len(g.Seq.Label))
	}
	if len(leaves) == 0 {
		leaves, treeM = nil, 0
	}

	d := uint64(dim)
	var scratch [16]byte
	// quantized emits one bound column rounded outward to float32 (sections
	// 7 and 8), derived per sequence into one reused buffer.
	var qbuf []float32
	quantized := func(round func([]float32, []float64), col func(*core.Segmented) []float64) func(func([]byte)) {
		return func(emit func([]byte)) {
			for _, g := range segs {
				src := col(g)
				qbuf = slices.Grow(qbuf[:0], len(src))[:len(src)]
				round(qbuf, src)
				emit(float32Bytes(qbuf))
			}
		}
	}
	sections := []secSpec{
		{secSeqDir, uint64(len(segs)) * 16, func(emit func([]byte)) {
			for _, g := range segs {
				binary.LittleEndian.PutUint32(scratch[0:4], uint32(g.Seq.Len()))
				binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(g.MBRs)))
				binary.LittleEndian.PutUint32(scratch[8:12], uint32(len(g.Seq.Label)))
				binary.LittleEndian.PutUint32(scratch[12:16], 0)
				emit(scratch[:16])
			}
		}},
		{secLabels, labelBytes, func(emit func([]byte)) {
			for _, g := range segs {
				if len(g.Seq.Label) > 0 {
					emit([]byte(g.Seq.Label))
				}
			}
		}},
		{secPoints, npoints * d * 8, func(emit func([]byte)) {
			for _, g := range segs {
				emit(float64Bytes(g.Flat))
			}
		}},
		{secMBRDir, nmbrs * 8, func(emit func([]byte)) {
			for _, g := range segs {
				for _, m := range g.MBRs {
					binary.LittleEndian.PutUint32(scratch[0:4], uint32(m.Start))
					binary.LittleEndian.PutUint32(scratch[4:8], uint32(m.End))
					emit(scratch[:8])
				}
			}
		}},
		{secLo, nmbrs * d * 8, func(emit func([]byte)) {
			for _, g := range segs {
				emit(float64Bytes(g.Lo))
			}
		}},
		{secHi, nmbrs * d * 8, func(emit func([]byte)) {
			for _, g := range segs {
				emit(float64Bytes(g.Hi))
			}
		}},
		{secQuantLo, nmbrs * d * 4, quantized(geom.QuantizeDown, func(g *core.Segmented) []float64 { return g.Lo })},
		{secQuantHi, nmbrs * d * 4, quantized(geom.QuantizeUp, func(g *core.Segmented) []float64 { return g.Hi })},
	}
	if treeM > 0 {
		sections = append(sections,
			secSpec{secLeafDir, uint64(len(leaves)) * 4, func(emit func([]byte)) {
				for _, leaf := range leaves {
					binary.LittleEndian.PutUint32(scratch[0:4], uint32(len(leaf)))
					emit(scratch[:4])
				}
			}},
			secSpec{secLeafRefs, nmbrs * 8, func(emit func([]byte)) {
				for _, leaf := range leaves {
					for _, ref := range leaf {
						binary.LittleEndian.PutUint64(scratch[0:8], uint64(ref))
						emit(scratch[:8])
					}
				}
			}},
		)
	}

	hdr := make([]byte, segHeaderLen)
	copy(hdr[0:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(dim))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(segs)))
	binary.LittleEndian.PutUint64(hdr[24:32], npoints)
	binary.LittleEndian.PutUint64(hdr[32:40], nmbrs)
	binary.LittleEndian.PutUint64(hdr[40:48], math.Float64bits(cfg.QueryExtent))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(cfg.MaxPoints))
	binary.LittleEndian.PutUint32(hdr[56:60], uint32(treeM))
	binary.LittleEndian.PutUint32(hdr[60:64], uint32(len(leaves)))
	binary.LittleEndian.PutUint64(hdr[64:72], labelBytes)
	binary.LittleEndian.PutUint32(hdr[72:76], 0)
	binary.LittleEndian.PutUint32(hdr[76:80], crc32.Checksum(hdr[:76], castagnoli))

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	werr := func() error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		var pad [8]byte
		for _, s := range sections {
			// Pass 1: checksum. Pass 2: header + payload + pad. The float
			// sections emit aliased views, so neither pass copies them.
			crc := uint32(0)
			s.emit(func(b []byte) { crc = crc32.Update(crc, castagnoli, b) })
			var sh [secHeaderLen]byte
			binary.LittleEndian.PutUint32(sh[0:4], s.id)
			binary.LittleEndian.PutUint32(sh[4:8], crc)
			binary.LittleEndian.PutUint64(sh[8:16], s.size)
			if _, err := w.Write(sh[:]); err != nil {
				return err
			}
			written := uint64(0)
			var emitErr error
			s.emit(func(b []byte) {
				if emitErr != nil {
					return
				}
				written += uint64(len(b))
				_, emitErr = w.Write(b)
			})
			if emitErr != nil {
				return emitErr
			}
			if written != s.size {
				return fmt.Errorf("store: section %d wrote %d bytes, want %d", s.id, written, s.size)
			}
			if p := pad8(s.size) - s.size; p > 0 {
				if _, err := w.Write(pad[:p]); err != nil {
					return err
				}
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
	}
	return werr
}

// sectionSum accumulates a section's CRC-32C and, for a section of
// little-endian float64s, whether every one of them is finite, over the
// section taken in pieces. A checksum says the bytes are the writer's, not
// that they are numbers, and the distance kernels assume finite
// coordinates and bounds (geom.GapSq); core.Sequence.Validate refuses the
// others on every other way in. A piece is taken a chunk at a time so that
// the scan reads what the checksum has just pulled into cache: Validate
// per sequence, a second trip through memory by way of a slice header per
// point, added an eighth to the open of a 4 M-point store.
type sectionSum struct {
	crc   uint32
	carry uint64 // sign bit set once a NaN or ±Inf has been folded in
}

// add folds the next piece of the section into the sums; a piece of a
// float section holds whole float64s.
func (s *sectionSum) add(p []byte, floats bool) {
	if !floats {
		s.crc = crc32.Update(s.crc, castagnoli, p)
		return
	}
	for len(p) > 0 {
		c := p[:min(32<<10, len(p))]
		p = p[len(c):]
		s.crc = crc32.Update(s.crc, castagnoli, c)
		s.carry |= nonFiniteCarry(float64View(c))
	}
}

// nonFiniteCarry returns a word whose sign bit is set iff xs holds a NaN
// or ±Inf: |x| plus one exponent step carries into the sign bit exactly
// when the exponent is all ones, as in those three alone. Four independent
// accumulators let four of the adds and ORs run at once, where one chain
// made every OR wait for the one before, and the values are read as the
// words they are, with no trip through a float register.
func nonFiniteCarry(xs []float64) uint64 {
	const mag, step = 1<<63 - 1, 1 << 52
	ws := float64Bits(xs)
	var c0, c1, c2, c3 uint64
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		w := ws[i : i+4 : i+4]
		c0 |= w[0]&mag + step
		c1 |= w[1]&mag + step
		c2 |= w[2]&mag + step
		c3 |= w[3]&mag + step
	}
	for ; i < len(ws); i++ {
		c0 |= ws[i]&mag + step
	}
	return c0 | c1 | c2 | c3
}

func (s *sectionSum) finite() bool { return s.carry>>63 == 0 }

// openSegmentsFile maps (or reads, on platforms without mmap) path and
// decodes it with startDecode. It returns the corpus while the points
// section's check is still running; the check holds the file and the
// mapping until its release. When the decode refuses the file, the
// mapping and the file are released before it returns.
func openSegmentsFile(path string) (*Corpus, *pointsCheck, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	buf, pointsAt, err := mapOrRead(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	c, pc, err := startDecode(buf, pointsAt)
	if err != nil {
		if pointsAt != nil {
			unmapFile(buf)
		}
		f.Close()
		return nil, nil, err
	}
	pc.file = f
	if pointsAt != nil {
		pc.mapping = buf
	}
	c.Mapped = pointsAt != nil
	return c, pc, nil
}

// mapOrRead returns the whole of f in an 8-byte-aligned buffer: a mapping,
// with f as the reader the points check goes through, or, where f cannot
// be mapped, a private read and no reader.
func mapOrRead(f *os.File) (buf []byte, pointsAt io.ReaderAt, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	size := st.Size()
	if size < segHeaderLen {
		return nil, nil, fmt.Errorf("%w: segment file truncated (%d bytes)", ErrBadStore, size)
	}
	if buf, mapped := mapFile(f, size); mapped {
		return buf, f, nil
	}
	if size > maxSegPoints*16 || int64(int(size)) != size {
		return nil, nil, fmt.Errorf("%w: segment file implausibly large (%d bytes)", ErrBadStore, size)
	}
	buf = alignedBytes(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return buf, nil, nil
}

// startDecode decodes a whole segment file held in buf, which must be
// 8-byte aligned, into a Corpus, aliasing the float sections in place on
// little-endian hosts. Every departure from the format — bad magic or
// version, checksum mismatch, section size/order drift, ranges that do
// not tile, counts that do not add up — returns ErrBadStore; no input
// may panic.
//
// The points section, most of the file and read by no step of an open, is
// checked on a goroutine of its own, which startDecode leaves running: it
// returns the corpus with the pointsCheck whose wait gives the verdict, so
// that the caller can build its index beside the check. The caller must
// not hand the corpus on before wait returns nil. When a later section or
// the directory is refused, startDecode waits for the check itself and
// returns the points' verdict first, as its place in the file says.
//
// When pointsAt is set, buf is a mapping of the file pointsAt reads, and
// the points section is verified from pointsAt (section.checkAt) instead
// of through buf, so that opening a store maps in none of its point
// pages: a query faults in the pages it reads. Every other section is
// verified in buf.
//
// The per-sequence headers are cut from slabs, one allocation per column
// for the whole file: the Segmented and Sequence structs, the MBRInfos,
// the Starts column, the labels (one string) and the packed-leaf refs. A
// sequence's points are a view of the points section, with no header per
// point. Each slab is sized from a header count the layout
// check has already tied to its section's byte length, so a corrupt
// header cannot make the decode allocate more than the file implies, and
// every per-sequence sub-slice has cap == len, so an append to one
// reallocates instead of writing into its neighbour.
func startDecode(buf []byte, pointsAt io.ReaderAt) (*Corpus, *pointsCheck, error) {
	if len(buf) < segHeaderLen {
		return nil, nil, fmt.Errorf("%w: segment file truncated (%d bytes)", ErrBadStore, len(buf))
	}
	size := len(buf)
	hdr := buf[:segHeaderLen]
	if string(hdr[0:8]) != segMagic {
		return nil, nil, fmt.Errorf("%w: bad segment magic %q", ErrBadStore, hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != segVersion {
		return nil, nil, fmt.Errorf("%w: segment version %d, want %d", ErrBadStore, v, segVersion)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[76:80]), crc32.Checksum(hdr[:76], castagnoli); got != want {
		return nil, nil, fmt.Errorf("%w: segment header checksum %08x, want %08x", ErrBadStore, got, want)
	}
	h := segHeader{
		dim:     int(binary.LittleEndian.Uint32(hdr[12:16])),
		nseqs:   binary.LittleEndian.Uint64(hdr[16:24]),
		npoints: binary.LittleEndian.Uint64(hdr[24:32]),
		nmbrs:   binary.LittleEndian.Uint64(hdr[32:40]),
		cfg: core.PartitionConfig{
			QueryExtent: math.Float64frombits(binary.LittleEndian.Uint64(hdr[40:48])),
			MaxPoints:   int(binary.LittleEndian.Uint64(hdr[48:56])),
		},
		treeM:      int(binary.LittleEndian.Uint32(hdr[56:60])),
		nleaves:    uint64(binary.LittleEndian.Uint32(hdr[60:64])),
		labelBytes: binary.LittleEndian.Uint64(hdr[64:72]),
	}

	switch {
	case h.dim < 1 || h.dim > maxMetaDims:
		return nil, nil, fmt.Errorf("%w: segment dim %d", ErrBadStore, h.dim)
	case h.nseqs < 1 || h.nseqs > maxSegSeqs:
		return nil, nil, fmt.Errorf("%w: segment sequence count %d", ErrBadStore, h.nseqs)
	case h.npoints < h.nseqs || h.npoints > maxSegPoints:
		return nil, nil, fmt.Errorf("%w: segment point count %d for %d sequences", ErrBadStore, h.npoints, h.nseqs)
	case h.nmbrs < h.nseqs || h.nmbrs > h.npoints:
		return nil, nil, fmt.Errorf("%w: segment MBR count %d", ErrBadStore, h.nmbrs)
	case h.labelBytes > maxSegLabels:
		return nil, nil, fmt.Errorf("%w: segment label bytes %d", ErrBadStore, h.labelBytes)
	case h.cfg.MaxPoints < 1 || uint64(h.cfg.MaxPoints) > math.MaxUint32:
		return nil, nil, fmt.Errorf("%w: segment MaxPoints %d", ErrBadStore, h.cfg.MaxPoints)
	case math.IsNaN(h.cfg.QueryExtent) || h.cfg.QueryExtent < 0:
		return nil, nil, fmt.Errorf("%w: segment QueryExtent %v", ErrBadStore, h.cfg.QueryExtent)
	case h.treeM == 0 && h.nleaves != 0:
		return nil, nil, fmt.Errorf("%w: %d leaves with no tree fanout", ErrBadStore, h.nleaves)
	case h.treeM > 0 && (h.nleaves < 1 || h.nleaves > h.nmbrs):
		return nil, nil, fmt.Errorf("%w: %d leaves for %d MBRs", ErrBadStore, h.nleaves, h.nmbrs)
	}

	d := uint64(h.dim)
	type want struct {
		id   uint32
		size uint64
	}
	wants := []want{
		{secSeqDir, h.nseqs * 16},
		{secLabels, h.labelBytes},
		{secPoints, h.npoints * d * 8},
		{secMBRDir, h.nmbrs * 8},
		{secLo, h.nmbrs * d * 8},
		{secHi, h.nmbrs * d * 8},
		{secQuantLo, h.nmbrs * d * 4},
		{secQuantHi, h.nmbrs * d * 4},
	}
	if h.treeM > 0 {
		wants = append(wants, want{secLeafDir, h.nleaves * 4}, want{secLeafRefs, h.nmbrs * 8})
	}
	expected := uint64(segHeaderLen)
	for _, w := range wants {
		expected += secHeaderLen + pad8(w.size)
	}
	if expected != uint64(size) {
		return nil, nil, fmt.Errorf("%w: segment file is %d bytes, layout needs %d", ErrBadStore, size, expected)
	}

	// Section headers first: their ids and lengths bound every payload.
	secs := make([]section, len(wants))
	off := uint64(segHeaderLen)
	for i, w := range wants {
		sh := buf[off : off+secHeaderLen]
		if id := binary.LittleEndian.Uint32(sh[0:4]); id != w.id {
			return nil, nil, fmt.Errorf("%w: section %d has id %d, want %d", ErrBadStore, i, id, w.id)
		}
		if l := binary.LittleEndian.Uint64(sh[8:16]); l != w.size {
			return nil, nil, fmt.Errorf("%w: section %d length %d, want %d", ErrBadStore, w.id, l, w.size)
		}
		secs[i] = section{
			id:      w.id,
			crc:     binary.LittleEndian.Uint32(sh[4:8]),
			off:     int64(off + secHeaderLen),
			payload: buf[off+secHeaderLen : off+secHeaderLen+w.size],
		}
		off += secHeaderLen + pad8(w.size)
	}

	// Then the payloads, in file order, the points on their own goroutine.
	for i := 0; i < 2; i++ {
		if err := secs[i].check(); err != nil {
			return nil, nil, err
		}
	}
	pc := startPointsCheck(secs[2], pointsAt)
	c, err := func() (*Corpus, error) {
		for i := 3; i < len(wants); i++ {
			if err := secs[i].check(); err != nil {
				return nil, err
			}
		}
		return decodeDirectory(secs, h)
	}()
	if err != nil {
		if perr := pc.wait(); perr != nil {
			return nil, nil, perr
		}
		return nil, nil, err
	}
	return c, pc, nil
}

// pointsCheck is the check of a segment file's points section, running on
// a goroutine of its own beside the rest of an open, together with what
// the open holds until the verdict is in: the file the check reads and the
// mapping the decoded corpus aliases. Its methods accept a nil check (a
// directory with no segment file), which passes and holds nothing.
type pointsCheck struct {
	done    sync.WaitGroup
	err     error
	file    *os.File
	mapping []byte
}

// startPointsCheck starts checking the points section s: from r when it is
// set, else in memory.
func startPointsCheck(s section, r io.ReaderAt) *pointsCheck {
	pc := &pointsCheck{}
	pc.done.Add(1)
	go func() {
		defer pc.done.Done()
		if r != nil {
			pc.err = s.checkAt(r)
		} else {
			pc.err = s.check()
		}
	}()
	return pc
}

// wait returns the check's verdict once it is in.
func (pc *pointsCheck) wait() error {
	if pc == nil {
		return nil
	}
	pc.done.Wait()
	return pc.err
}

// finish ends the open the check belongs to, once the opener has built
// what it will over the corpus, err being the build's error: it returns
// the check's error ahead of err and, when there is one, calls discard
// (if set) to close what was built before it unmaps the file, which that
// aliases. It closes the file either way; on success the mapping stays
// until the process exits: a Match.Seq handed out before the database
// closes is a view of it, so nothing unmaps it (DESIGN "Memory model").
func (pc *pointsCheck) finish(err error, discard func()) error {
	if perr := pc.wait(); perr != nil {
		err = perr
	}
	if err != nil && discard != nil {
		discard()
	}
	pc.release(err == nil)
	return err
}

// release unmaps the file unless keep is set, and closes it; the mapping
// outlives the file.
func (pc *pointsCheck) release(keep bool) {
	if pc == nil {
		return
	}
	if !keep && pc.mapping != nil {
		unmapFile(pc.mapping)
	}
	pc.mapping = nil
	if pc.file != nil {
		pc.file.Close()
		pc.file = nil
	}
}

// section is one section of a segment file: the id and the payload's
// checksum its header records, and the payload, at offset off in the file.
type section struct {
	id      uint32
	crc     uint32
	off     int64
	payload []byte
}

// check verifies the section's payload against the checksum its header
// records and, for a float section, that every value is finite.
func (s section) check() error {
	var sum sectionSum
	sum.add(s.payload, s.floats())
	return s.verdict(sum)
}

// checkAtChunk bounds the buffer checkAt reads through.
const checkAtChunk = 256 << 10

// checkAt is check with the payload read from r, the file, a chunk at a
// time through one reused buffer rather than through the mapping the
// payload is a view of, so that the check maps no page of it into the
// process.
func (s section) checkAt(r io.ReaderAt) error {
	size := int64(len(s.payload))
	buf := alignedBytes(int(min(size, checkAtChunk)))
	var sum sectionSum
	for done := int64(0); done < size; {
		c := buf[:min(size-done, int64(len(buf)))]
		// A read that fills c is whole, even if it reports io.EOF.
		if n, err := r.ReadAt(c, s.off+done); n < len(c) {
			return fmt.Errorf("%w: section %d: %v", ErrBadStore, s.id, err)
		}
		sum.add(c, s.floats())
		done += int64(len(c))
	}
	return s.verdict(sum)
}

func (s section) floats() bool { return s.id == secPoints || s.id == secLo || s.id == secHi }

func (s section) verdict(sum sectionSum) error {
	if sum.crc != s.crc {
		return fmt.Errorf("%w: section %d checksum %08x, want %08x", ErrBadStore, s.id, s.crc, sum.crc)
	}
	if !sum.finite() {
		return fmt.Errorf("%w: section %d holds a NaN or ±Inf: %w", ErrBadStore, s.id, core.ErrNonFinite)
	}
	return nil
}

// segHeader is a segment file's header, as decodeSegments reads it.
type segHeader struct {
	dim                                        int
	nseqs, npoints, nmbrs, labelBytes, nleaves uint64
	cfg                                        core.PartitionConfig
	treeM                                      int
}

// decodeDirectory assembles the corpus from the sections (in file order)
// and the header's counts, which the layout check has tied to the
// payloads' lengths, so every slab below is bounded by the file. The
// float sections are aliased once; everything per sequence is cut from
// the slabs.
func decodeDirectory(secs []section, h segHeader) (*Corpus, error) {
	d := uint64(h.dim)
	seqdir, labels := secs[0].payload, secs[1].payload
	pointsAll := float64View(secs[2].payload)
	mbrdir := secs[3].payload
	loAll, hiAll := float64View(secs[4].payload), float64View(secs[5].payload)

	segs := make([]*core.Segmented, h.nseqs)
	segSlab := make([]core.Segmented, h.nseqs)
	seqSlab := make([]core.Sequence, h.nseqs)
	mbrSlab := make([]core.MBRInfo, h.nmbrs)
	startSlab := make([]int32, h.nmbrs+h.nseqs)
	labelStr := string(labels)
	var pOff, mOff, lOff uint64
	for i := uint64(0); i < h.nseqs; i++ {
		n := uint64(binary.LittleEndian.Uint32(seqdir[i*16:]))
		r := uint64(binary.LittleEndian.Uint32(seqdir[i*16+4:]))
		ll := uint64(binary.LittleEndian.Uint32(seqdir[i*16+8:]))
		if n < 1 || r < 1 || r > n || pOff+n > h.npoints || mOff+r > h.nmbrs || lOff+ll > h.labelBytes {
			return nil, fmt.Errorf("%w: sequence %d directory entry (%d pts, %d MBRs, %d label) overruns", ErrBadStore, i, n, r, ll)
		}
		flat := pointsAll[pOff*d : (pOff+n)*d : (pOff+n)*d]
		seq := &seqSlab[i]
		seq.Label = labelStr[lOff : lOff+ll]
		ranges := mbrSlab[mOff : mOff+r : mOff+r]
		for j := range ranges {
			e := mbrdir[(mOff+uint64(j))*8:]
			ranges[j] = core.MBRInfo{
				Start: int(binary.LittleEndian.Uint32(e)),
				End:   int(binary.LittleEndian.Uint32(e[4:])),
			}
		}
		// Sequence i's Starts column follows the i earlier ones, each one
		// entry longer than its MBR count.
		starts := startSlab[mOff+i : mOff+i+r+1 : mOff+i+r+1]
		lo := loAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		hi := hiAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		if err := segSlab[i].InitColumnar(seq, h.dim, ranges, starts, flat, lo, hi); err != nil {
			return nil, fmt.Errorf("%w: sequence %d: %v", ErrBadStore, i, err)
		}
		// No seq.Validate: the directory decode above cut n ≥ 1 points of
		// exactly dim coordinates, and no corpus is returned unless the
		// points section's check finds them finite.
		segs[i] = &segSlab[i]
		pOff += n
		mOff += r
		lOff += ll
	}
	if pOff != h.npoints || mOff != h.nmbrs || lOff != h.labelBytes {
		return nil, fmt.Errorf("%w: directory covers %d/%d points, %d/%d MBRs, %d/%d label bytes",
			ErrBadStore, pOff, h.npoints, mOff, h.nmbrs, lOff, h.labelBytes)
	}

	var leaves [][]rtree.Ref
	if h.treeM > 0 {
		leafdir, leafrefs := secs[8].payload, secs[9].payload
		leaves = make([][]rtree.Ref, h.nleaves)
		refSlab := make([]rtree.Ref, h.nmbrs)
		var rOff uint64
		for li := uint64(0); li < h.nleaves; li++ {
			cnt := uint64(binary.LittleEndian.Uint32(leafdir[li*4:]))
			if cnt < 1 || cnt > uint64(h.treeM) || rOff+cnt > h.nmbrs {
				return nil, fmt.Errorf("%w: packed leaf %d holds %d entries", ErrBadStore, li, cnt)
			}
			leaf := refSlab[rOff : rOff+cnt : rOff+cnt]
			for k := range leaf {
				leaf[k] = rtree.Ref(binary.LittleEndian.Uint64(leafrefs[(rOff+uint64(k))*8:]))
			}
			leaves[li] = leaf
			rOff += cnt
		}
		if rOff != h.nmbrs {
			// Ref validity and exactly-once coverage are enforced by the
			// bulk loader (core.AddAllSegmented); the count is checked here
			// so a file without that second stage still fails closed.
			return nil, fmt.Errorf("%w: packed leaves cover %d of %d MBRs", ErrBadStore, rOff, h.nmbrs)
		}
	}

	return &Corpus{Dim: h.dim, Config: h.cfg, Segs: segs, Leaves: leaves, TreeM: h.treeM}, nil
}
