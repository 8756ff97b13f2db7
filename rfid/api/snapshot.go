package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The snapshot bodies — GET .../snapshot/{tag} and above all the time-travel
// GET .../snapshot?epoch=N, which carries every tracked object — are the
// largest bodies the server writes and the SDK reads, so their JSON is written
// and read here by hand instead of through encoding/json's reflection.
//
// The encoder writes exactly the bytes json.NewEncoder(w).Encode(v) writes:
// the same key order, the trailing newline, encoding/json's float formatting
// and its string escaping. The decoder reads that canonical form in one pass
// and hands any other input (whitespace, another key order or case, unknown
// keys, escaped strings, a number encoding/json would refuse for the field) to
// json.Unmarshal, so it returns exactly what json.Unmarshal returns.

// floatKeys are the TagSnapshot float fields' keys, in field order.
var floatKeys = [6]string{`,"x":`, `,"y":`, `,"z":`, `,"var_x":`, `,"var_y":`, `,"var_z":`}

// AppendTagSnapshot appends the JSON body of t — the bytes
// json.NewEncoder(w).Encode(t) writes, newline included. Like encoding/json it
// refuses a NaN or infinite number; dst is then returned unchanged.
func AppendTagSnapshot(dst []byte, t *TagSnapshot) ([]byte, error) {
	b, err := appendTag(dst, t)
	if err != nil {
		return dst, err
	}
	return append(b, '\n'), nil
}

// AppendHistorySnapshot appends the JSON body of h — the bytes
// json.NewEncoder(w).Encode(h) writes, newline included ("objects":null for
// nil Objects). Like encoding/json it refuses a NaN or infinite number; dst is
// then returned unchanged.
func AppendHistorySnapshot(dst []byte, h *HistorySnapshot) ([]byte, error) {
	if h.Objects == nil {
		return append(appendEpoch(dst, h.Epoch), `,"objects":null}`+"\n"...), nil
	}
	e := NewHistoryEncoder(dst, h.Epoch)
	for i := range h.Objects {
		e.Add(&h.Objects[i])
	}
	return e.Finish()
}

// HistoryEncoder appends a HistorySnapshot body one object at a time, so a
// server can write it straight from its own estimates without building a
// []TagSnapshot first.
type HistoryEncoder struct {
	buf   []byte
	start int // len(dst), to hand dst back unchanged on error
	n     int
	err   error
}

// NewHistoryEncoder starts the body of epoch's snapshot, appending to dst.
func NewHistoryEncoder(dst []byte, epoch int) HistoryEncoder {
	return HistoryEncoder{buf: append(appendEpoch(dst, epoch), `,"objects":[`...), start: len(dst)}
}

// Add appends one object. After an error it does nothing.
func (e *HistoryEncoder) Add(t *TagSnapshot) {
	if e.err != nil {
		return
	}
	if e.n > 0 {
		e.buf = append(e.buf, ',')
	}
	e.n++
	e.buf, e.err = appendTag(e.buf, t)
}

// Finish closes the body and returns dst with it appended, or dst unchanged
// and the first error an Add met.
func (e *HistoryEncoder) Finish() ([]byte, error) {
	if e.err != nil {
		return e.buf[:e.start], e.err
	}
	return append(e.buf, "]}\n"...), nil
}

func appendEpoch(b []byte, epoch int) []byte {
	return strconv.AppendInt(append(b, `{"epoch":`...), int64(epoch), 10)
}

// appendTag appends t as a JSON object; on error b is returned unchanged.
func appendTag(b []byte, t *TagSnapshot) ([]byte, error) {
	start := len(b)
	b = appendString(append(b, `{"tag":`...), t.Tag)
	b = strconv.AppendBool(append(b, `,"found":`...), t.Found)
	for i, v := range [6]float64{t.X, t.Y, t.Z, t.VarX, t.VarY, t.VarZ} {
		var err error
		if b, err = appendFloat(append(b, floatKeys[i]...), v); err != nil {
			return b[:start], err
		}
	}
	b = strconv.AppendInt(append(b, `,"num_particles":`...), int64(t.NumParticles), 10)
	b = strconv.AppendBool(append(b, `,"compressed":`...), t.Compressed)
	return append(b, '}'), nil
}

// appendString appends s as a JSON string. Printable ASCII without a byte
// encoding/json escapes is copied as is; anything else takes json.Marshal's
// escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f the way encoding/json does: the shortest 'f' form,
// 'e' below 1e-6 or from 1e21 up, with a one-digit negative exponent written
// e-7 rather than e-07.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// DecodeTagSnapshot sets *out to the TagSnapshot in data. Value and error are
// exactly those of json.Unmarshal(data, out) on a zero *out.
func DecodeTagSnapshot(data []byte, out *TagSnapshot) error {
	s := scanner{b: data, ok: true}
	var t TagSnapshot
	s.tag(&t)
	if s.end() {
		*out = t
		return nil
	}
	*out = TagSnapshot{}
	return json.Unmarshal(data, out)
}

// DecodeHistorySnapshot sets *out to the HistorySnapshot in data. Value and
// error are exactly those of json.Unmarshal(data, out) on a zero *out.
func DecodeHistorySnapshot(data []byte, out *HistorySnapshot) error {
	s := scanner{b: data, ok: true}
	var h HistorySnapshot
	s.lit(`{"epoch":`)
	h.Epoch = s.int()
	s.lit(`,"objects":[`)
	if s.ok {
		h.Objects = make([]TagSnapshot, 0, bytes.Count(data[s.i:], []byte(`{"tag":`)))
	}
	for s.ok && !s.peek(']') {
		if len(h.Objects) > 0 {
			s.lit(",")
		}
		h.Objects = append(h.Objects, TagSnapshot{})
		s.tag(&h.Objects[len(h.Objects)-1])
	}
	s.lit("]}")
	if s.end() {
		*out = h
		return nil
	}
	*out = HistorySnapshot{}
	return json.Unmarshal(data, out)
}

// scanner reads the canonical form. Its first mismatch clears ok, after which
// every read is a no-op returning a zero value.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

func (s *scanner) tag(t *TagSnapshot) {
	s.lit(`{"tag":`)
	t.Tag = s.str()
	s.lit(`,"found":`)
	t.Found = s.bool()
	for i, f := range [6]*float64{&t.X, &t.Y, &t.Z, &t.VarX, &t.VarY, &t.VarZ} {
		s.lit(floatKeys[i])
		*f = s.float()
	}
	s.lit(`,"num_particles":`)
	t.NumParticles = s.int()
	s.lit(`,"compressed":`)
	t.Compressed = s.bool()
	s.lit("}")
}

// end reports whether the whole input was read, bar one trailing newline.
func (s *scanner) end() bool {
	rest := len(s.b) - s.i
	return s.ok && (rest == 0 || rest == 1 && s.b[s.i] == '\n')
}

func (s *scanner) peek(c byte) bool { return s.ok && s.i < len(s.b) && s.b[s.i] == c }

func (s *scanner) lit(l string) {
	if s.ok && len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return
	}
	s.ok = false
}

func (s *scanner) bool() bool {
	if s.peek('t') {
		s.lit("true")
		return s.ok
	}
	s.lit("false")
	return false
}

// str reads a string of printable ASCII without escapes.
func (s *scanner) str() string {
	if !s.peek('"') {
		s.ok = false
		return ""
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := string(s.b[s.i+1 : j])
			s.i = j + 1
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// int reads an integer the way encoding/json fills an int field.
func (s *scanner) int() int {
	v, err := strconv.ParseInt(string(s.number(false)), 10, 0)
	if err != nil {
		s.ok = false
	}
	return int(v)
}

// float reads a number the way encoding/json fills a float64 field.
func (s *scanner) float() float64 {
	v, err := strconv.ParseFloat(string(s.number(true)), 64)
	if err != nil {
		s.ok = false
	}
	return v
}

// number reads the text of one JSON number, with a fraction and exponent only
// when frac is set.
func (s *scanner) number(frac bool) []byte {
	if !s.ok {
		return nil
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.ok = false
		return nil
	}
	if frac && i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			s.ok = false
			return nil
		}
	}
	if frac && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			s.ok = false
			return nil
		}
	}
	n := b[s.i:i]
	s.i = i
	return n
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
