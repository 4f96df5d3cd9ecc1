package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// allocBody writes GET /v1/allocation from a per-job cache of encoded
// fragments, so a full read re-encodes only the rows that changed since
// the previous read. Backends publish copy-on-write snapshots: a commit
// replaces the rows of the components it re-solved and hands every other
// row on by pointer (Backend.Allocation's read-only contract). A row is
// therefore identified by its backing array and length, and a cached
// fragment stays valid as long as the map still holds that very slice.
//
// The body is byte-for-byte what json.NewEncoder(w).Encode writes for
// the equivalent AllocationResponse: IDs in sorted order, floats under
// encoding/json's formatting rules, HTML-escaped strings, a trailing
// newline.
type allocBody struct {
	mu      sync.Mutex
	byID    map[string]*fragment
	order   []*fragment // byID's fragments sorted by ID; never written once handed out
	scratch []byte
}

// fragment is one job's encoded `"id":{"id":…,"shares":[…],"aggregate":…}`.
// id, row and enc never change after construction; pos is guarded by
// allocBody.mu.
type fragment struct {
	id string
	// row is the slice enc was encoded from, held (not its address as an
	// integer) so that its array stays alive: no later row can reuse the
	// address while this entry stands.
	row []float64
	enc []byte
	pos int // index in allocBody.order
}

// sameRow reports whether a and b are the same slice: the same backing
// array and length, or both empty with the same nil-ness (an empty row
// encodes as [] and a nil one as null, whatever the array).
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return (a == nil) == (b == nil)
	}
	return &a[0] == &b[0]
}

// fragments returns alloc's encoded fragments in ID order, encoding only
// the rows the previous read did not hold and dropping the IDs alloc no
// longer has. The returned slice is never written again, so the caller
// reads it without the lock. A non-finite share is an error, as it is
// for encoding/json.
func (c *allocBody) fragments(alloc map[string][]float64) ([]*fragment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byID == nil {
		c.byID = make(map[string]*fragment, len(alloc))
	}
	var replaced []*fragment
	added := false
	for id, row := range alloc {
		f := c.byID[id]
		if f != nil && sameRow(f.row, row) {
			continue
		}
		var err error
		c.scratch, err = appendFragment(c.scratch[:0], id, row)
		if err != nil {
			// byID may now disagree with order: start over next read.
			c.byID, c.order = nil, nil
			return nil, err
		}
		nf := &fragment{id: id, row: row, enc: bytes.Clone(c.scratch)}
		if f == nil {
			added = true
		} else {
			nf.pos = f.pos
			replaced = append(replaced, nf)
		}
		c.byID[id] = nf
	}
	// byID now holds every ID of alloc, so a surplus is removed IDs.
	removed := len(c.byID) > len(alloc)
	if removed {
		for id := range c.byID {
			if _, ok := alloc[id]; !ok {
				delete(c.byID, id)
			}
		}
	}
	switch {
	case added || removed:
		order := make([]*fragment, 0, len(c.byID))
		for _, f := range c.byID {
			order = append(order, f)
		}
		slices.SortFunc(order, func(a, b *fragment) int { return strings.Compare(a.id, b.id) })
		for i, f := range order {
			f.pos = i
		}
		c.order = order
	case len(replaced) > 0:
		order := slices.Clone(c.order)
		for _, f := range replaced {
			order[f.pos] = f
		}
		c.order = order
	}
	return c.order, nil
}

// bodyWriters buffer the fragments into large writes to the response.
var bodyWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// writeAllocation sends the AllocationResponse body for frags, version
// and policy, outside allocBody's lock.
func writeAllocation(w http.ResponseWriter, frags []*fragment, version uint64, policy string) {
	w.Header().Set("Content-Type", "application/json")
	bw := bodyWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	// Write errors are dropped: they mean the client has gone, and the
	// status is already sent.
	defer func() {
		bw.Reset(nil)
		bodyWriters.Put(bw)
	}()
	_, _ = bw.WriteString(`{"jobs":{`)
	for i, f := range frags {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		_, _ = bw.Write(f.enc)
	}
	tail := make([]byte, 0, 64)
	tail = append(tail, '}')
	if version != 0 {
		tail = append(tail, `,"version":`...)
		tail = strconv.AppendUint(tail, version, 10)
	}
	if policy != "" {
		tail = append(tail, `,"policy":`...)
		tail = appendJSONString(tail, policy)
	}
	tail = append(tail, "}\n"...)
	_, _ = bw.Write(tail)
	_ = bw.Flush()
}

// appendFragment appends id's `"id":{"id":…,"shares":[…],"aggregate":…}`,
// the aggregate summed in row order as sharesResponse sums it.
func appendFragment(b []byte, id string, row []float64) ([]byte, error) {
	start := len(b)
	b = appendJSONString(b, id)
	end := len(b)
	b = append(b, `:{"id":`...)
	b = append(b, b[start:end]...)
	b = append(b, `,"shares":`...)
	var agg float64
	if row == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSONFloat(b, v); err != nil {
				return b, err
			}
			agg += v
		}
		b = append(b, ']')
	}
	b = append(b, `,"aggregate":`...)
	b, err := appendJSONFloat(b, agg)
	return append(b, '}'), err
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, 'e' below 1e-6 and from 1e21 on with a one-digit
// negative exponent unpadded (e-7, not e-07). NaN and ±Inf are refused.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if f == 0 && !math.Signbit(f) {
		return append(b, '0'), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping on (the Encoder default): <, > and & as \u00XX, the short
// escapes for \b \f \n \r \t, other control bytes as \u00XX, U+2028 and
// U+2029 escaped, and invalid UTF-8 replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
