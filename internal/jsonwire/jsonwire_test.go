package jsonwire

import (
	"encoding/json"
	"testing"
)

// TestAppendStringMatchesMarshal pins AppendString to json.Marshal on
// the strings encoding/json escapes: quotes, backslashes, the
// HTML-sensitive characters, control bytes, DEL, non-ASCII, invalid
// UTF-8 and the JavaScript line separators.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "t1", "355/113", `a"b`, `back\slash`, "<tag>&", "tab\there", "nl\n", "\x00", "\x7f", "τ2", "\xff\xfe", "line\u2028sep\u2029"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

// TestParserPlainSubset pins what the cursor reads and what it refuses.
func TestParserPlainSubset(t *testing.T) {
	str := func(in string) (string, bool) { p := NewParser([]byte(in)); return p.Str() }
	for in, want := range map[string]string{` "a b/c~" `: "a b/c~", `""`: "", "\"\x7f\"": "\x7f"} {
		if got, ok := str(in); !ok || got != want {
			t.Errorf("Str(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	for _, in := range []string{`"a\"b"`, `"a\\b"`, "\"τ\"", "\"tab\t\"", `"open`, `null`, `x`} {
		if got, ok := str(in); ok {
			t.Errorf("Str(%q) = %q, want refusal", in, got)
		}
	}
	integer := func(in string) (int, bool) { p := NewParser([]byte(in)); return p.Int() }
	for in, want := range map[string]int{"0": 0, "-0": 0, " 42,": 42, "-7}": -7} {
		if got, ok := integer(in); !ok || got != want {
			t.Errorf("Int(%q) = %d, %v; want %d", in, got, ok, want)
		}
	}
	for _, in := range []string{"01", "1.0", "1e2", "-", "", "99999999999999999999", `"1"`} {
		if got, ok := integer(in); ok {
			t.Errorf("Int(%q) = %d, want refusal", in, got)
		}
	}
	boolean := func(in string) (bool, bool) { p := NewParser([]byte(in)); return p.Bool() }
	if v, ok := boolean(" true"); !ok || !v {
		t.Errorf("Bool(true) = %v, %v", v, ok)
	}
	if v, ok := boolean("false"); !ok || v {
		t.Errorf("Bool(false) = %v, %v", v, ok)
	}
	for _, in := range []string{"tru", "null", "1", `"true"`} {
		if _, ok := boolean(in); ok {
			t.Errorf("Bool(%q) accepted", in)
		}
	}
	// Object and Array report the callback's refusal and malformed
	// separators; End rejects trailing data.
	p := NewParser([]byte(` {"k": [1, 2], "j": []} `))
	var sum int
	ok := p.Object(func(key string) bool {
		return p.Array(func() bool { v, ok := p.Int(); sum += v; return ok })
	})
	if !ok || sum != 3 || !p.End() {
		t.Errorf("Object/Array: ok %v, sum %d, end %v", ok, sum, p.End())
	}
	for _, in := range []string{`{"k":[1,]}`, `{"k":[1 2]}`, `{"k":[1],}`, `{"k" [1]}`, `[1]`} {
		p := NewParser([]byte(in))
		if p.Object(func(string) bool { return p.Array(func() bool { _, ok := p.Int(); return ok }) }) {
			t.Errorf("Object(%q) accepted", in)
		}
	}
	if p := NewParser([]byte(`{} x`)); !p.Object(func(string) bool { return false }) || p.End() {
		t.Error("End accepted trailing data")
	}
}

// TestParserText pins Text: Str's subset plus valid multi-byte UTF-8,
// which json.Decoder reads back unchanged; escapes, control bytes and
// invalid UTF-8 (which json.Decoder replaces) are refused.
func TestParserText(t *testing.T) {
	text := func(in string) (string, bool) { p := NewParser([]byte(in)); return p.Text() }
	for _, in := range []string{`"a b/c~"`, `""`, "\"\x7f\"", `"no λ ≥ C/T for τ2"`, "\"US(Γ)=7/2  \""} {
		got, ok := text(in)
		var want string
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if !ok || got != want {
			t.Errorf("Text(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	for _, in := range []string{`"a\"b"`, `"a\\b"`, "\"tab\t\"", "\"bad \xff\"", "\"cut \xce\"", `"open`, `null`} {
		if got, ok := text(in); ok {
			t.Errorf("Text(%q) = %q, want refusal", in, got)
		}
	}
}
