package store

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The v2 segment file stores every number little-endian. On a
// little-endian host the float sections are therefore valid in-memory
// []float64 representations already, and the loader aliases them in
// place with unsafe.Slice — the "zero per-sequence deserialization"
// half of the format. Big-endian (or pathologically misaligned) hosts
// fall back to decode-copies; correctness is identical, only the
// cold-start win shrinks.

// hostLittleEndian reports whether this machine stores multi-byte
// values in the file's byte order, detected once at init.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes returns a zeroed n-byte buffer whose base address is
// 8-byte aligned (it is carved from a []uint64 allocation), so float64
// views over any 8-byte-offset region of it are well aligned. Used by
// the whole-file read fallback when mmap is unavailable.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return b[:n]
}

// float64View reinterprets b as little-endian float64s. On a
// little-endian host with 8-byte alignment the data is aliased in place
// (zero copy); otherwise a decoded copy is returned.
func float64View(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// float64Bits views xs as the words math.Float64bits would return for
// them, on any host: a float64 and its bits share one representation in
// memory.
func float64Bits(xs []float64) []uint64 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&xs[0])), len(xs))
}

// float32Bytes is float64Bytes for the quantized sidecar sections.
func float32Bytes(fs []float32) []byte {
	if len(fs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), len(fs)*4)
	}
	out := make([]byte, len(fs)*4)
	for i, f := range fs {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(f))
	}
	return out
}

// float64Bytes views fs as the little-endian byte run the file stores —
// aliased on a little-endian host, encoded into a fresh buffer
// otherwise. The writer uses it for both checksumming and writing, so
// the large point/MBR sections are never copied on the common path.
func float64Bytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), len(fs)*8)
	}
	out := make([]byte, len(fs)*8)
	for i, f := range fs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(f))
	}
	return out
}
