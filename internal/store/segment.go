package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

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
//	           toward −∞; see geom.QuantizeDown)
//	8 qhi      nmbrs × dim f32 — quantized upper bounds (hi rounded
//	           toward +∞)
//	9 leafdir  nleaves × u32 — entries per packed R*-tree leaf (iff treeM > 0)
//	10 leafrefs nmbrs × u64 — rtree refs in STR leaf order; the id half of
//	           each ref is the sequence's *position* (0-based, dense), not
//	           a persisted database id (iff treeM > 0)
//
// Sections 3, 5-8 are exactly the in-memory representation of the
// Segmented columnar arrays (Flat/Lo/Hi/QLo/QHi) on a little-endian
// host, and every section payload starts 8-byte aligned (80-byte header,
// 16-byte section headers, 8-padded payloads), so the loader aliases
// them in place — no per-sequence deserialization and no re-running of
// the outward float32 rounding. Sections 9/10 carry the STR leaf
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
	secQLo      = 7
	secQHi      = 8
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

// ReadSegments reads and validates a v2 segment file. All sections are
// checksummed; any structural violation fails with ErrBadStore.
func ReadSegments(path string) (*Corpus, error) {
	return readSegmentsFile(path)
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
		if len(g.QLo) != r*dim || len(g.QHi) != r*dim {
			return fmt.Errorf("store: segment %d quantized sidecar %d/%d, want %d", i, len(g.QLo), len(g.QHi), r*dim)
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
		{secQLo, nmbrs * d * 4, func(emit func([]byte)) {
			for _, g := range segs {
				emit(float32Bytes(g.QLo))
			}
		}},
		{secQHi, nmbrs * d * 4, func(emit func([]byte)) {
			for _, g := range segs {
				emit(float32Bytes(g.QHi))
			}
		}},
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

// sectionChecksum returns crc32.Checksum(p, castagnoli) and, for a section
// of little-endian float64s, whether every one of them is finite. A
// checksum says the bytes are the writer's, not that they are numbers, and
// the distance kernels assume finite coordinates and bounds (geom.GapSq);
// core.Sequence.Validate refuses the others on every other way in. The
// section is taken a chunk at a time so that the scan reads what the
// checksum has just pulled into cache: Validate per sequence, a second
// trip through memory by way of a slice header per point, added an eighth
// to the open of a 4 M-point store.
func sectionChecksum(p []byte, floats bool) (crc uint32, finite bool) {
	if !floats {
		return crc32.Checksum(p, castagnoli), true
	}
	var carry uint64
	for len(p) > 0 {
		c := p[:min(32<<10, len(p))]
		p = p[len(c):]
		crc = crc32.Update(crc, castagnoli, c)
		for _, x := range float64View(c) {
			// |x| plus one exponent step carries into the sign bit exactly
			// when the exponent is all ones, as in NaN and ±Inf alone.
			carry |= math.Float64bits(x)&^(1<<63) + 1<<52
		}
	}
	return crc, carry>>63 == 0
}

// readSegmentsFile maps (or reads, on platforms without mmap) path and
// decodes it into a Corpus, aliasing the float sections in place on
// little-endian hosts. Every departure from the format — bad magic or
// version, checksum mismatch, section size/order drift, ranges that do
// not tile, counts that do not add up — returns ErrBadStore; no input
// may panic.
func readSegmentsFile(path string) (c *Corpus, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	size := st.Size()
	if size < segHeaderLen {
		return nil, fmt.Errorf("%w: segment file truncated (%d bytes)", ErrBadStore, size)
	}

	buf, mapped := mapFile(f, size)
	if mapped {
		defer func() {
			// The mapping must outlive the Corpus on success; release it
			// only when validation rejects the file.
			if err != nil {
				unmapFile(buf)
			}
		}()
	} else {
		if size > maxSegPoints*16 || int64(int(size)) != size {
			return nil, fmt.Errorf("%w: segment file implausibly large (%d bytes)", ErrBadStore, size)
		}
		buf = alignedBytes(int(size))
		if _, err := io.ReadFull(f, buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
	}

	hdr := buf[:segHeaderLen]
	if string(hdr[0:8]) != segMagic {
		return nil, fmt.Errorf("%w: bad segment magic %q", ErrBadStore, hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != segVersion {
		return nil, fmt.Errorf("%w: segment version %d, want %d", ErrBadStore, v, segVersion)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[76:80]), crc32.Checksum(hdr[:76], castagnoli); got != want {
		return nil, fmt.Errorf("%w: segment header checksum %08x, want %08x", ErrBadStore, got, want)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[12:16]))
	nseqs := binary.LittleEndian.Uint64(hdr[16:24])
	npoints := binary.LittleEndian.Uint64(hdr[24:32])
	nmbrs := binary.LittleEndian.Uint64(hdr[32:40])
	cfg := core.PartitionConfig{
		QueryExtent: math.Float64frombits(binary.LittleEndian.Uint64(hdr[40:48])),
		MaxPoints:   int(binary.LittleEndian.Uint64(hdr[48:56])),
	}
	treeM := int(binary.LittleEndian.Uint32(hdr[56:60]))
	nleaves := uint64(binary.LittleEndian.Uint32(hdr[60:64]))
	labelBytes := binary.LittleEndian.Uint64(hdr[64:72])

	switch {
	case dim < 1 || dim > maxMetaDims:
		return nil, fmt.Errorf("%w: segment dim %d", ErrBadStore, dim)
	case nseqs < 1 || nseqs > maxSegSeqs:
		return nil, fmt.Errorf("%w: segment sequence count %d", ErrBadStore, nseqs)
	case npoints < nseqs || npoints > maxSegPoints:
		return nil, fmt.Errorf("%w: segment point count %d for %d sequences", ErrBadStore, npoints, nseqs)
	case nmbrs < nseqs || nmbrs > npoints:
		return nil, fmt.Errorf("%w: segment MBR count %d", ErrBadStore, nmbrs)
	case labelBytes > maxSegLabels:
		return nil, fmt.Errorf("%w: segment label bytes %d", ErrBadStore, labelBytes)
	case cfg.MaxPoints < 1 || uint64(cfg.MaxPoints) > math.MaxUint32:
		return nil, fmt.Errorf("%w: segment MaxPoints %d", ErrBadStore, cfg.MaxPoints)
	case math.IsNaN(cfg.QueryExtent) || cfg.QueryExtent < 0:
		return nil, fmt.Errorf("%w: segment QueryExtent %v", ErrBadStore, cfg.QueryExtent)
	case treeM == 0 && nleaves != 0:
		return nil, fmt.Errorf("%w: %d leaves with no tree fanout", ErrBadStore, nleaves)
	case treeM > 0 && (nleaves < 1 || nleaves > nmbrs):
		return nil, fmt.Errorf("%w: %d leaves for %d MBRs", ErrBadStore, nleaves, nmbrs)
	}

	d := uint64(dim)
	type want struct {
		id   uint32
		size uint64
	}
	wants := []want{
		{secSeqDir, nseqs * 16},
		{secLabels, labelBytes},
		{secPoints, npoints * d * 8},
		{secMBRDir, nmbrs * 8},
		{secLo, nmbrs * d * 8},
		{secHi, nmbrs * d * 8},
		{secQLo, nmbrs * d * 4},
		{secQHi, nmbrs * d * 4},
	}
	if treeM > 0 {
		wants = append(wants, want{secLeafDir, nleaves * 4}, want{secLeafRefs, nmbrs * 8})
	}
	expected := uint64(segHeaderLen)
	for _, w := range wants {
		expected += secHeaderLen + pad8(w.size)
	}
	if expected != uint64(size) {
		return nil, fmt.Errorf("%w: segment file is %d bytes, layout needs %d", ErrBadStore, size, expected)
	}

	payload := make([][]byte, len(wants))
	off := uint64(segHeaderLen)
	for i, w := range wants {
		sh := buf[off : off+secHeaderLen]
		if id := binary.LittleEndian.Uint32(sh[0:4]); id != w.id {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", ErrBadStore, i, id, w.id)
		}
		if l := binary.LittleEndian.Uint64(sh[8:16]); l != w.size {
			return nil, fmt.Errorf("%w: section %d length %d, want %d", ErrBadStore, w.id, l, w.size)
		}
		p := buf[off+secHeaderLen : off+secHeaderLen+w.size]
		wantCRC, finite := sectionChecksum(p, w.id == secPoints || w.id == secLo || w.id == secHi)
		if got := binary.LittleEndian.Uint32(sh[4:8]); got != wantCRC {
			return nil, fmt.Errorf("%w: section %d checksum %08x, want %08x", ErrBadStore, w.id, got, wantCRC)
		}
		if !finite {
			return nil, fmt.Errorf("%w: section %d holds a NaN or ±Inf: %w", ErrBadStore, w.id, core.ErrNonFinite)
		}
		payload[i] = p
		off += secHeaderLen + pad8(w.size)
	}

	// Directory decode + per-sequence assembly. The float sections are
	// aliased once here; everything per-sequence below is slice headers.
	seqdir, labels := payload[0], payload[1]
	pointsAll := float64View(payload[2])
	mbrdir := payload[3]
	loAll, hiAll := float64View(payload[4]), float64View(payload[5])
	qloAll, qhiAll := float32View(payload[6]), float32View(payload[7])

	segs := make([]*core.Segmented, nseqs)
	var pOff, mOff, lOff uint64
	for i := uint64(0); i < nseqs; i++ {
		n := uint64(binary.LittleEndian.Uint32(seqdir[i*16:]))
		r := uint64(binary.LittleEndian.Uint32(seqdir[i*16+4:]))
		ll := uint64(binary.LittleEndian.Uint32(seqdir[i*16+8:]))
		if n < 1 || r < 1 || r > n || pOff+n > npoints || mOff+r > nmbrs || lOff+ll > labelBytes {
			return nil, fmt.Errorf("%w: sequence %d directory entry (%d pts, %d MBRs, %d label) overruns", ErrBadStore, i, n, r, ll)
		}
		flat := pointsAll[pOff*d : (pOff+n)*d : (pOff+n)*d]
		pts := make([]geom.Point, n)
		for k := range pts {
			pts[k] = geom.Point(flat[uint64(k)*d : (uint64(k)+1)*d : (uint64(k)+1)*d])
		}
		seq := &core.Sequence{Label: string(labels[lOff : lOff+ll]), Points: pts}
		ranges := make([]core.MBRInfo, r)
		for j := uint64(0); j < r; j++ {
			ranges[j] = core.MBRInfo{
				Start: int(binary.LittleEndian.Uint32(mbrdir[(mOff+j)*8:])),
				End:   int(binary.LittleEndian.Uint32(mbrdir[(mOff+j)*8+4:])),
			}
		}
		lo := loAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		hi := hiAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		qlo := qloAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		qhi := qhiAll[mOff*d : (mOff+r)*d : (mOff+r)*d]
		g, err := core.NewSegmentedColumnarQ(seq, ranges, flat, lo, hi, qlo, qhi)
		if err != nil {
			return nil, fmt.Errorf("%w: sequence %d: %v", ErrBadStore, i, err)
		}
		// No seq.Validate: the directory decode above cut n ≥ 1 points of
		// exactly dim coordinates, and sectionChecksum found them finite.
		segs[i] = g
		pOff += n
		mOff += r
		lOff += ll
	}
	if pOff != npoints || mOff != nmbrs || lOff != labelBytes {
		return nil, fmt.Errorf("%w: directory covers %d/%d points, %d/%d MBRs, %d/%d label bytes",
			ErrBadStore, pOff, npoints, mOff, nmbrs, lOff, labelBytes)
	}

	var leaves [][]rtree.Ref
	if treeM > 0 {
		leafdir, leafrefs := payload[8], payload[9]
		leaves = make([][]rtree.Ref, nleaves)
		var rOff uint64
		for li := uint64(0); li < nleaves; li++ {
			cnt := uint64(binary.LittleEndian.Uint32(leafdir[li*4:]))
			if cnt < 1 || cnt > uint64(treeM) || rOff+cnt > nmbrs {
				return nil, fmt.Errorf("%w: packed leaf %d holds %d entries", ErrBadStore, li, cnt)
			}
			leaf := make([]rtree.Ref, cnt)
			for k := range leaf {
				leaf[k] = rtree.Ref(binary.LittleEndian.Uint64(leafrefs[(rOff+uint64(k))*8:]))
			}
			leaves[li] = leaf
			rOff += cnt
		}
		if rOff != nmbrs {
			// Ref validity and exactly-once coverage are enforced by the
			// bulk loader (core.AddAllSegmented); the count is checked here
			// so a file without that second stage still fails closed.
			return nil, fmt.Errorf("%w: packed leaves cover %d of %d MBRs", ErrBadStore, rOff, nmbrs)
		}
	}

	return &Corpus{Dim: dim, Config: cfg, Segs: segs, Leaves: leaves, TreeM: treeM, Mapped: mapped}, nil
}
