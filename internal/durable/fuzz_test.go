package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through both the frame decoder
// and a full Open. The contract under corruption: clean truncation or
// a loud error — never a panic, and never a silently wrong resident
// set. "Not silently wrong" is checked two ways: every record the
// decoder does accept must re-encode through the framing to the exact
// valid prefix it was read from (so accepted data is genuine, not
// invented), and a second Open over the recovered directory must
// reproduce the first one's state (so whatever state recovery settles
// on is at least stable, not an artifact of the damage).
func FuzzWALDecode(f *testing.F) {
	rec := func(r Record) []byte {
		b, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	a := tk("a", 1, 4, 8, 2)
	valid := rec(Record{Seq: 1, Op: OpCreateController, Controller: "x", Columns: 8, Tests: []string{"GN2"}})
	valid = append(valid, rec(Record{Seq: 2, Op: OpAdmit, Controller: "x", Task: &a})...)
	valid = append(valid, rec(Record{Seq: 3, Op: OpCreatePlacement, Controller: "g", Width: 4, Height: 4, Heuristic: "bottom-left"})...)
	p := Task2D{Name: "p", C: "1", D: "2", T: "4", W: 1, H: 1}
	valid = append(valid, rec(Record{Seq: 4, Op: OpPlace, Controller: "g", Task2D: &p, Rect: &Rect{W: 1, H: 1}, ID: 1})...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0xff, 0x00, 0x12))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		recs, valid, err := decodeFrames(body)
		if valid > len(body) || valid < 0 {
			t.Fatalf("valid prefix %d outside body of %d bytes", valid, len(body))
		}
		if err != nil {
			return // loud failure is an allowed outcome
		}
		// Decoding the accepted prefix alone must reproduce exactly the
		// same records with nothing left over: what was accepted is a
		// deterministic function of the bytes, not of the damage after.
		recs2, valid2, err2 := decodeFrames(body[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not re-decode to itself: %d recs/%d bytes/%v, want %d/%d/nil",
				len(recs2), valid2, err2, len(recs), valid)
		}
		for i := range recs {
			a, _ := json.Marshal(recs[i])
			b, _ := json.Marshal(recs2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d decodes differently on re-decode: %s vs %s", i, a, b)
			}
		}

		// Full recovery path: Open must not panic, and on success its
		// state must be reproducible by a second recovery.
		dir := t.TempDir()
		walPath := filepath.Join(dir, walFileName)
		if werr := os.WriteFile(walPath, append([]byte(walMagic), body...), 0o644); werr != nil {
			t.Fatal(werr)
		}
		s1, err := Open(Options{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			return
		}
		state1, _ := json.Marshal(s1.State())
		s1.Close()
		s2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("recovered directory does not reopen: %v", err)
		}
		state2, _ := json.Marshal(s2.State())
		s2.Close()
		if !bytes.Equal(state1, state2) {
			t.Fatalf("recovery not stable:\nfirst  %s\nsecond %s", state1, state2)
		}
	})
}
