package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/geom"
)

// The request half of the wire path: one scanner over the body bytes
// decodes all six request bodies. Its contract is agreement with what the
// handlers used before it — json.Decoder with DisallowUnknownFields
// decoding into the documented wire types: the same bodies are accepted,
// and an accepted body yields the same values, down to the corners (keys
// match case-insensitively, a later duplicate key decodes over the earlier
// value in place, null leaves a scalar as it was, bytes after the
// top-level value are ignored). FuzzDecodeRequest compares the two on
// every input. The one deliberate difference is where the numbers land:
// a points array becomes one flat []float64 plus one []geom.Point header
// slice, both freshly allocated, because an ingested sequence keeps its
// points: they must not share the pooled body buffer's lifetime.

// field is one key of the request schema; an endpoint allows a subset.
type field uint16

const (
	fPoints field = 1 << iota
	fEps
	fMetric
	fDTWWindow
	fK
	fQueries
	fID
	fLabel
	fSequences
)

// The field sets of the six request bodies (SearchRequest, KNNRequest,
// BatchSearchRequest, SequenceJSON, {sequences}, {points}).
const (
	searchFields   = fPoints | fEps | fMetric | fDTWWindow // /search and /explain
	knnFields      = fPoints | fK | fMetric | fDTWWindow
	batchFields    = fQueries | fEps
	sequenceFields = fID | fLabel | fPoints // POST /sequences, and each member of sequences
	addBatchFields = fSequences
	appendFields   = fPoints
)

var fieldNames = [...]struct {
	name []byte
	f    field
}{
	{[]byte("points"), fPoints},
	{[]byte("eps"), fEps},
	{[]byte("metric"), fMetric},
	{[]byte("dtwWindow"), fDTWWindow},
	{[]byte("k"), fK},
	{[]byte("queries"), fQueries},
	{[]byte("id"), fID},
	{[]byte("label"), fLabel},
	{[]byte("sequences"), fSequences},
}

// body is the union of every request body's fields; the endpoint's field
// set says which of them a request may carry.
type body struct {
	Points    []geom.Point
	Eps       float64
	Metric    string
	DTWWindow *int
	K         int
	Queries   [][]geom.Point
	ID        uint32
	Label     string
	Sequences []body
}

// decodeRequest decodes the JSON value at the start of b into dst, allowing
// the given fields. Like json.Decoder.Decode it reads one value and
// ignores what follows it, and a top-level null leaves dst untouched.
func decodeRequest(b []byte, allowed field, dst *body) error {
	d := decoder{b: b}
	d.space()
	switch d.peek() {
	case 'n':
		return d.lit("null")
	case '{':
		return d.object(dst, allowed)
	}
	return d.fail("a JSON object")
}

// decoder is a cursor over one request body.
type decoder struct {
	b     []byte
	i     int
	sized int // end of the last region size() counted
}

// peek returns the byte at the cursor, 0 at the end of the input (0 is
// valid nowhere in JSON outside a string, so callers need no length check).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) fail(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.b[d.i], d.i, want)
}

// lit consumes the literal s.
func (d *decoder) lit(s string) error {
	if !bytes.HasPrefix(d.b[d.i:], []byte(s)) {
		return d.fail(s)
	}
	d.i += len(s)
	return nil
}

// next reports whether another element follows in the array or object
// being read and leaves the cursor on it; first is true right after the
// opening bracket, close is the closing one.
func (d *decoder) next(first bool, close byte) (bool, error) {
	d.space()
	switch c := d.peek(); {
	case c == close:
		d.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		d.space()
		if d.peek() != close { // no trailing comma
			return true, nil
		}
	}
	return false, d.fail("',' or '" + string(close) + "'")
}

// object decodes the object at the cursor into dst, over whatever dst
// already holds (a field the object does not name keeps its value).
func (d *decoder) object(dst *body, allowed field) error {
	d.i++ // '{'
	for first := true; ; first = false {
		more, err := d.next(first, '}')
		if err != nil || !more {
			return err
		}
		f, err := d.key(allowed)
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.fail("':'")
		}
		d.i++
		d.space()
		switch f {
		case fPoints:
			var ar arenas
			if dst.Points == nil && d.peek() == '[' && d.i >= d.sized {
				ar = newArenas(d.size())
			}
			err = d.points(&dst.Points, &ar)
		case fQueries:
			var ar arenas // shared by the queries; the few-element outer slice grows by append
			if dst.Queries == nil && d.peek() == '[' && d.i >= d.sized {
				ar = newArenas(d.size())
			}
			err = decodeArray(d, &dst.Queries, &arena[[]geom.Point]{}, func(q *[]geom.Point) error { return d.points(q, &ar) })
		case fSequences:
			err = decodeArray(d, &dst.Sequences, &arena[body]{}, d.member)
		case fEps:
			err = d.float(&dst.Eps)
		case fK:
			err = d.int(&dst.K)
		case fDTWWindow:
			if d.peek() == 'n' {
				dst.DTWWindow = nil
				err = d.lit("null")
				break
			}
			if dst.DTWWindow == nil {
				dst.DTWWindow = new(int)
			}
			err = d.int(dst.DTWWindow)
		case fID:
			err = d.uint32(&dst.ID)
		case fMetric:
			err = d.string(&dst.Metric)
		case fLabel:
			err = d.string(&dst.Label)
		}
		if err != nil {
			return err
		}
	}
}

// member decodes one element of a sequences array.
func (d *decoder) member(dst *body) error {
	switch d.peek() {
	case 'n':
		return d.lit("null")
	case '{':
		return d.object(dst, sequenceFields)
	}
	return d.fail("a sequence object")
}

// key consumes an object key and resolves it among the allowed fields the
// way encoding/json resolves struct fields: under Unicode simple case
// folding. (No two names of the schema fold together, so "exact match
// first" has nothing to decide.)
func (d *decoder) key(allowed field) (field, error) {
	if d.peek() != '"' {
		return 0, d.fail("an object key")
	}
	tok, plain, err := d.token()
	if err != nil {
		return 0, err
	}
	name := tok[1 : len(tok)-1]
	if !plain {
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return 0, err
		}
		name = []byte(s)
	}
	for _, fn := range fieldNames {
		if allowed&fn.f != 0 && bytes.EqualFold(fn.name, name) {
			return fn.f, nil
		}
	}
	return 0, fmt.Errorf("unknown field %q", name)
}

// token consumes the string token at the cursor, quotes included. plain
// means it holds no backslash and no byte outside ASCII, so its contents
// are the string; anything else goes through encoding/json's unquoting,
// which also judges the escapes.
func (d *decoder) token() (tok []byte, plain bool, err error) {
	start := d.i
	plain = true
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start:d.i], plain, nil
		case c == '\\':
			plain = false
			d.i++ // the escaped byte cannot end the string
		case c < 0x20:
			return nil, false, d.fail("a string without raw control characters")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, d.fail("'\"'")
}

// string decodes a string value; null leaves dst as it was.
func (d *decoder) string(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.lit("null")
	case '"':
		tok, plain, err := d.token()
		if err != nil {
			return err
		}
		if !plain {
			return json.Unmarshal(tok, dst)
		}
		*dst = string(tok[1 : len(tok)-1])
		return nil
	}
	return d.fail("a string")
}

// float decodes one number into *dst through parseNumber; null (consumed)
// leaves *dst as it was.
func (d *decoder) float(dst *float64) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	f, n, want := parseNumber(d.b[d.i:])
	if n == 0 {
		return d.fail(want)
	}
	if math.IsInf(f, 0) {
		return fmt.Errorf("number %s does not fit a float64", d.b[d.i:d.i+n])
	}
	d.i += n
	*dst = f
	return nil
}

// number consumes one number token for the integer fields, which
// strconv parses. ok is false when the value is null (consumed too), which
// leaves the field as it was.
func (d *decoder) number() (tok []byte, ok bool, err error) {
	if d.peek() == 'n' {
		return nil, false, d.lit("null")
	}
	_, n, want, _ := scanNumber(d.b[d.i:])
	if n == 0 {
		return nil, false, d.fail(want)
	}
	tok = d.b[d.i : d.i+n]
	d.i += n
	return tok, true, nil
}

func (d *decoder) int(dst *int) error {
	tok, ok, err := d.number()
	if !ok {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int", tok)
	}
	*dst = int(n)
	return nil
}

func (d *decoder) uint32(dst *uint32) error {
	tok, ok, err := d.number()
	if !ok {
		return err
	}
	n, err := strconv.ParseUint(string(tok), 10, 32)
	if err != nil {
		return fmt.Errorf("number %s is not a uint32", tok)
	}
	*dst = uint32(n)
	return nil
}

// arena hands a slice being decoded its capacity. encoding/json grows each
// slice by appending, one allocation per point; here a fresh slice opens
// on the arena's free space, grows there without allocating, and is
// clipped to its length when it closes, so the numbers of one points array
// share one allocation and its point headers another. The zero arena has
// no space and leaves every slice to append.
type arena[T any] struct{ free []T }

// arenas are the two a points array draws on.
type arenas struct {
	f arena[float64]
	p arena[geom.Point]
}

func newArenas(nums, points int) arenas {
	return arenas{
		f: arena[float64]{make([]float64, nums)},
		p: arena[geom.Point]{make([]geom.Point, points)},
	}
}

// open returns the slice to decode into. A slice that already has
// capacity — a duplicate key, decoding over the first value — is decoded
// in place as encoding/json does; a fresh one starts on the arena.
func (a *arena[T]) open(s []T) (_ []T, fresh bool) {
	if cap(s) > 0 {
		return s, false
	}
	return a.free[:0], true
}

// close takes a fresh slice's elements off the free space. A slice that
// outgrew the arena was moved off it by append and owns its memory.
func (a *arena[T]) close(s []T, fresh bool) []T {
	if fresh && len(s) <= len(a.free) {
		a.free = a.free[len(s):]
		return s[:len(s):len(s)]
	}
	return s
}

// size bounds, for sizing its arenas, what the array value at the cursor
// holds if it is a well-formed points value (or a queries value, a list of
// them). It counts up to the next '}' — no such value contains one, and it
// ends the object the value is a member of — so a bound covers what follows
// the value in its object too, and never falls below what the value holds.
// A point is an array with its own '[' inside the outer one and its own
// ']', and all but the last are followed by a comma; a number is a leaf,
// at most one more than the commas, and takes at least one byte that is
// neither a comma nor a bracket. So a body cannot buy more arena than a
// well-formed body of its size would use, whatever it repeats. Each region
// is counted once: a value that starts inside the last one counted (the
// same key again, after a null) gets no arena and appends, so the regions
// sized in one body are disjoint, and each byte is counted once.
func (d *decoder) size() (nums, points int) {
	region := d.b[d.i:]
	if end := bytes.IndexByte(region, '}'); end >= 0 {
		region = region[:end]
	}
	d.sized = d.i + len(region)
	commas := bytes.Count(region, []byte{','})
	opens := bytes.Count(region, []byte{'['})
	closes := bytes.Count(region, []byte{']'})
	return min(commas+1, len(region)-commas-opens-closes), min(opens-1, closes, commas+1)
}

// decodeArray decodes an array value into *dst the way encoding/json
// decodes into a slice: null makes it nil; otherwise element i is decoded
// over what the slice already holds at i — memory within its capacity is
// reused as it is, memory beyond it starts zero — and the slice ends with
// the array's length, [] becoming a fresh empty slice.
func decodeArray[T any](d *decoder, dst *[]T, ar *arena[T], elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.lit("null")
	case '[':
	default:
		return d.fail("an array")
	}
	d.i++
	s, fresh := ar.open(*dst)
	n := 0
	for ; ; n++ {
		more, err := d.next(n == 0, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		if err := elem(&s[n]); err != nil {
			return err
		}
	}
	if n == 0 {
		*dst = []T{}
		return nil
	}
	*dst = ar.close(s[:n], fresh)
	return nil
}

// points decodes a [][]float64 value.
func (d *decoder) points(dst *[]geom.Point, ar *arenas) error {
	num := d.float
	return decodeArray(d, dst, &ar.p, func(p *geom.Point) error {
		return decodeArray(d, (*[]float64)(p), &ar.f, num)
	})
}

// readBody reads r to its end into b, growing it as needed.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
