// Package jsonwire holds the reflection-free JSON primitives shared by
// the hot wire codecs (task.Set, api.AdmitResponse and the analyze
// request and response): an appender that renders strings exactly as
// encoding/json does, a one-pass cursor over the plain subset of JSON
// those codecs accept, and the read that hands a body to the cursor
// with the encoding/json fallback ready.
//
// The cursor decides nothing on its own. Every method reports ok =
// false on input outside the plain subset — string escapes, bytes
// outside printable ASCII (outside valid UTF-8 for Text), null, numbers
// with a fraction or exponent — and a codec built on it then hands the
// same bytes to encoding/json, whose answer is authoritative. The
// codecs' fuzz targets pin the two paths to each other.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
)

// ReadPlain reads all of r and hands the bytes to parse, a codec's
// plain-subset parser. If parse accepts them it returns ok = true.
// Otherwise — parse refused them, or the read failed — it returns a
// reader that replays exactly what r yielded, the bytes and then the
// read error, for the codec's json.Decoder fallback: a decoder reading
// it sees what a streaming decoder of r would have seen, so its result
// and error text are those of a plain json.Decoder decode.
func ReadPlain(r io.Reader, parse func([]byte) bool) (rest io.Reader, ok bool) {
	data, err := io.ReadAll(r)
	if err == nil && parse(data) {
		return nil, true
	}
	rest = bytes.NewReader(data)
	if err != nil {
		rest = io.MultiReader(rest, errReader{err})
	}
	return rest, false
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// AppendString appends s as a JSON string exactly as json.Marshal
// renders it. A string of printable ASCII other than the characters
// encoding/json escapes (quote, backslash and the HTML-sensitive <, >,
// &) and of valid multi-byte UTF-8 other than U+2028 and U+2029 is
// copied as is; any other string is delegated to json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !verbatim[c] {
			if c < utf8.RuneSelf || !verbatimText(s[i:]) {
				return appendMarshalled(b, s)
			}
			break
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// verbatimText reports whether encoding/json copies every byte of s
// into a string as it is: verbatim ASCII, and valid multi-byte UTF-8
// other than U+2028 and U+2029.
func verbatimText(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !verbatim[c] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// appendMarshalled appends json.Marshal's encoding of s.
func appendMarshalled(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}

// verbatim marks the printable ASCII bytes encoding/json copies into a
// string as they are; plain marks the bytes Parser.Str reads as they
// are.
var verbatim, plain = func() (v, p [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		p[c] = c != '"' && c != '\\'
		v[c] = p[c] && c != 0x7f && c != '<' && c != '>' && c != '&'
	}
	return v, p
}()

// Parser is a cursor over one JSON input. The input is converted to a
// string once, so the strings it reads are substrings of it rather
// than one allocation each; a caller that keeps a string beyond the
// input's lifetime and does not want to pin the input clones it.
type Parser struct {
	s string
	i int
}

// NewParser returns a cursor at the start of data.
func NewParser(data []byte) Parser { return Parser{s: string(data)} }

// ws skips JSON whitespace.
func (p *Parser) ws() {
	s, i := p.s, p.i
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	p.i = i
}

// Consume skips whitespace and then the byte c, reporting whether it
// was there.
func (p *Parser) Consume(c byte) bool {
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// End skips trailing whitespace and reports whether the input is
// exhausted.
func (p *Parser) End() bool {
	p.ws()
	return p.i == len(p.s)
}

// Str reads a string of printable ASCII with no escapes.
func (p *Parser) Str() (string, bool) {
	if !p.Consume('"') {
		return "", false
	}
	in, j := p.s, p.i
	for j < len(in) && plain[in[j]] {
		j++
	}
	if j == len(in) || in[j] != '"' {
		return "", false
	}
	s := in[p.i:j]
	p.i = j + 1
	return s, true
}

// Text reads a string with no escapes whose bytes are printable ASCII
// or valid multi-byte UTF-8: the free text (a verdict's reason) that
// encoding/json writes as is, and reads back unchanged.
func (p *Parser) Text() (string, bool) {
	if !p.Consume('"') {
		return "", false
	}
	in, j := p.s, p.i
	wide := false
	for j < len(in) && (plain[in[j]] || in[j] >= utf8.RuneSelf) {
		wide = wide || in[j] >= utf8.RuneSelf
		j++
	}
	if j == len(in) || in[j] != '"' || wide && !utf8.ValidString(in[p.i:j]) {
		return "", false
	}
	s := in[p.i:j]
	p.i = j + 1
	return s, true
}

// Int reads a JSON integer (no fraction or exponent) that fits an int.
func (p *Parser) Int() (int, bool) {
	p.ws()
	start, j := p.i, p.i
	if j < len(p.s) && p.s[j] == '-' {
		j++
	}
	digits := j
	for j < len(p.s) && p.s[j] >= '0' && p.s[j] <= '9' {
		j++
	}
	if j == digits || (p.s[digits] == '0' && j-digits > 1) {
		return 0, false
	}
	if j < len(p.s) && (p.s[j] == '.' || p.s[j] == 'e' || p.s[j] == 'E') {
		return 0, false
	}
	v, err := strconv.Atoi(p.s[start:j])
	if err != nil {
		return 0, false
	}
	p.i = j
	return v, true
}

// Bool reads true or false.
func (p *Parser) Bool() (v, ok bool) {
	p.ws()
	for _, lit := range [...]string{"false", "true"} {
		if len(p.s)-p.i >= len(lit) && p.s[p.i:p.i+len(lit)] == lit {
			p.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// Object reads one object, calling field with each key once the cursor
// is on that key's value; field reads the value and reports success.
func (p *Parser) Object(field func(key string) bool) bool {
	if !p.Consume('{') {
		return false
	}
	if p.Consume('}') {
		return true
	}
	for {
		key, ok := p.Str()
		if !ok || !p.Consume(':') || !field(key) {
			return false
		}
		if p.Consume('}') {
			return true
		}
		if !p.Consume(',') {
			return false
		}
	}
}

// Array reads one array, calling elem with the cursor on each element;
// elem reads the element and reports success.
func (p *Parser) Array(elem func() bool) bool {
	if !p.Consume('[') {
		return false
	}
	if p.Consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.Consume(']') {
			return true
		}
		if !p.Consume(',') {
			return false
		}
	}
}
