package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Hooks for the tests of package store_test, which import internal/txn (an
// importer of this package) and so cannot live in package store.
var (
	WriteSegmentsPacked    = writeSegmentsFile
	AssertAnswersIdentical = assertAnswersIdentical
	CorpusSeqs             = corpusSeqs
)

// ReadSegments reads and validates a v2 segment file, as LoadSegments
// does, and returns its corpus.
func ReadSegments(path string) (*Corpus, error) {
	c, pc, err := openSegmentsFile(path)
	if err != nil {
		return nil, err
	}
	if err := pc.finish(nil, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// Section ids of the v2 segment file, for tests that damage one.
const (
	SecPoints   = secPoints
	SecLo       = secLo
	SecLeafRefs = secLeafRefs
)

// SectionSpan returns where section id's payload starts in a segment file
// and how many bytes it holds.
func SectionSpan(file []byte, id uint32) (start, n int) {
	off := segHeaderLen
	for binary.LittleEndian.Uint32(file[off:]) != id {
		off += secHeaderLen + int(pad8(binary.LittleEndian.Uint64(file[off+8:])))
	}
	return off + secHeaderLen, int(binary.LittleEndian.Uint64(file[off+8:]))
}

// Reseal rewrites the checksum of section id in a segment file to match
// its payload, so that damage to the payload passes the checksum.
func Reseal(file []byte, id uint32) {
	start, n := SectionSpan(file, id)
	binary.LittleEndian.PutUint32(file[start-secHeaderLen+4:], crc32.Checksum(file[start:start+n], castagnoli))
}
