package server

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// The answer half of the wire path: /search (both metric forms), every
// member of /batch, and /knn are written by the appenders below straight
// from the database's result slices into one pooled byte buffer, which
// the handler then sends with a Content-Length in a single Write. The
// contract is byte-identity with what encoding/json writes for the
// documented wire types (SearchResponse, MatchJSON, NeighborJSON): same
// field order, same omitempty decisions, "intervals":null for an empty
// set, the same float and string forms, the trailing newline of
// Encoder.Encode. TestAppendResponseMatchesEncodingJSON holds the two
// side by side.

// errNonFinite is what an appender reports for a NaN or ±Inf value: JSON
// has no form for it, and it only arises when a query's coordinates are so
// large that a distance overflows float64.
var errNonFinite = errors.New("a distance in the answer overflows float64 (query coordinates too large)")

// bufPool holds the byte buffers a request is read into and its answer is
// built in. Only bytes are pooled: everything decoded from a request is
// copied or parsed out of the buffer before it is reused.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest buffer handed back to bufPool; a rare huge
// body or answer is left to the garbage collector, not pinned by the pool.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// appendSearchResponse appends the SearchResponse encoding of a range
// answer. The paper's answer carries minDnorm and the solution intervals
// per match; an exact one — a range search under a metric — carries dist
// (omitted at 0, as omitempty does) and neither of those, and leaves out
// shardsAnswered, which that form of the answer never had.
func appendSearchResponse(b []byte, res core.Result, exact bool) ([]byte, error) {
	b = append(b, `{"matches":[`...)
	for i := range res.Matches {
		m := &res.Matches[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendMatchHead(b, m.SeqID, m.Seq.Label)
		var err error
		if exact {
			b = append(b, `0,"intervals":null`...)
			if m.Dist != 0 {
				b = append(b, `,"dist":`...)
				b, err = appendFloat(b, m.Dist)
			}
		} else if b, err = appendFloat(b, m.MinDnorm); err == nil {
			b = appendIntervals(b, m.Interval.Ranges())
		}
		if err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	if exact {
		res.PerShard = nil
	}
	return appendResponseTail(b, res.Stats, res.PerShard), nil
}

// appendIntervals appends `,"intervals":` and the [start,end) pairs, null
// for none.
func appendIntervals(b []byte, ranges []core.PointRange) []byte {
	b = append(b, `,"intervals":`...)
	if len(ranges) == 0 {
		return append(b, "null"...)
	}
	sep := byte('[')
	for _, rg := range ranges {
		b = append(b, sep, '[')
		sep = ','
		b = strconv.AppendInt(b, int64(rg.Start), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(rg.End), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendMatchHead appends a MatchJSON up to and including `"minDnorm":`.
func appendMatchHead(b []byte, id uint32, label string) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(id), 10)
	b = append(b, `,"label":`...)
	b = appendString(b, label)
	return append(b, `,"minDnorm":`...)
}

// appendResponseTail closes the matches array and appends the rest of a
// SearchResponse: the omitempty flags, shardsAnswered, and stats.
func appendResponseTail(b []byte, st core.SearchStats, perShard []core.ShardStats) []byte {
	b = append(b, ']')
	if st.CacheHit {
		b = append(b, `,"cached":true`...)
	}
	if st.Partial {
		b = append(b, `,"partial":true`...)
	}
	for i, ps := range perShard {
		if i == 0 {
			b = append(b, `,"shardsAnswered":[`...)
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(ps.Shard), 10)
	}
	if len(perShard) > 0 {
		b = append(b, ']')
	}
	b = append(b, `,"stats":{"queryMBRs":`...)
	b = strconv.AppendInt(b, int64(st.QueryMBRs), 10)
	b = append(b, `,"candidates":`...)
	b = strconv.AppendInt(b, int64(st.CandidatesDmbr), 10)
	b = append(b, `,"totalSequences":`...)
	b = strconv.AppendInt(b, int64(st.TotalSequences), 10)
	b = append(b, `,"phase1Us":`...)
	b = strconv.AppendInt(b, st.Phase1.Microseconds(), 10)
	b = append(b, `,"phase2Us":`...)
	b = strconv.AppendInt(b, st.Phase2.Microseconds(), 10)
	b = append(b, `,"phase3Us":`...)
	b = strconv.AppendInt(b, st.Phase3.Microseconds(), 10)
	b = append(b, `,"cpuUs":`...)
	b = strconv.AppendInt(b, st.CPUTime.Microseconds(), 10)
	return append(b, "}}"...)
}

// appendNeighbors appends the /knn answer, {"neighbors":[NeighborJSON...]}.
func appendNeighbors(b []byte, results []core.KNNResult) ([]byte, error) {
	b = append(b, `{"neighbors":[`...)
	for i := range results {
		n := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(n.SeqID), 10)
		b = append(b, `,"label":`...)
		b = appendString(b, n.Seq.Label)
		b = append(b, `,"dist":`...)
		var err error
		if b, err = appendFloat(b, n.Dist); err != nil {
			return b, err
		}
		b = append(b, `,"offset":`...)
		b = strconv.AppendInt(b, int64(n.Offset), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendFloat appends f the way encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// two-digit negative exponent's leading zero dropped (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errNonFinite
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// its default HTML escaping: `"` and `\` backslashed, \b \f \n \r \t short
// forms, other control bytes and < > & as \u00XX, U+2028/U+2029 escaped,
// each invalid UTF-8 byte as the six characters \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
