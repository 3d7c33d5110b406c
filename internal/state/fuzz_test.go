package state

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudless/internal/eval"
)

// FuzzStateDecode feeds arbitrary bytes to Decode, which reads snapshot.json
// and every commit-log frame of a state directory, and holds it to the
// encoding/json decoder it replaced (referenceDecode): both must accept the
// same documents and read them to states that encode to the same bytes. A
// document only one of them took would be a commit-log record one side cuts
// and the other keeps. What Decode accepts must also survive Encode and
// Decode unchanged. The seeds are a snapshot written before records had a
// generation, records that have one, and the corners where encoding/json's
// rules are easy to miss.
func FuzzStateDecode(f *testing.F) {
	snap, err := os.ReadFile("../statedb/testdata/pr11-format/snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	for _, seed := range []string{
		`{"version":1,"serial":2,"resources":{"aws_vpc.a":{"type":"aws_vpc","id":"vpc-00000001","region":"us-east-1",` +
			`"attrs":{"name":"a","cidr_block":"10.0.0.0/16","tags":{"k":[1,true,null]}},"generation":4,` +
			`"dependencies":["aws_region.r"],"created_at":"2026-01-02T03:04:05Z","updated_at":"2026-01-02T03:04:05.5+01:00"}},` +
			`"outputs":{"id":"vpc-00000001"}}`,
		`{"version":1,"serial":0,"resources":{"x.y":{"type":"x","id":"","attrs":{"p":"\u0000cloudless:unknown\u0000"},"generation":-1}}}`,
		`{"version":1,"resources":{"x.y":{"attrs":null,"generation":9007199254740993}}}`,
		`{"version":1,"resources":null,"outputs":null}`,
		`{"version":2}`, `{not json`, `null`, ``, `[]`, `{"version":1} x`, ` {"version":1}` + "\n\t\r ",
		// Field names match case-insensitively, Unicode folds included
		// (ſ folds to s); unknown fields are skipped.
		`{"VERSION":1,"Serial":3,"ReSoUrCeS":{"a.b":{"TYPE":"t","ID":"i","Attrs":{"Id":"i"}}},"unknown":[{"x":1}]}`,
		`{"version":1,"ſerial":3,"resources":{"a.b":{"attrs":{},"dependencies":["x"],"generation":2}}}`,
		// A repeated field: scalars take the last value, null leaves them,
		// maps merge, a slice is read again in place.
		`{"version":1,"serial":1,"serial":2,"serial":null,"resources":{"a.b":{"attrs":{"x":1},"attrs":{"y":2}}},"resources":{"c.d":{}}}`,
		`{"version":1,"resources":{"a.b":{"dependencies":["p","q","r"],"dependencies":["s"],"dependencies":[null,null]}}}`,
		`{"version":1,"resources":{"a.b":{"attrs":{"x":1},"attrs":null},"a.b":null,"c.d":{"id":"1"},"c.d":{"type":"t"}}}`,
		`{"version":1,"outputs":{"o":1},"outputs":{"p":{"q":[]}},"outputs":{"o":{"a":1,"a":2}}}`,
		// Integers only where the struct has an int; any number in attrs.
		`{"version":1.0}`, `{"version":1e0}`, `{"version":"1"}`, `{"version":1,"serial":-0}`,
		`{"version":1,"resources":{"a.b":{"generation":1.0}}}`,
		`{"version":1,"resources":{"a.b":{"generation":99999999999999999999}}}`,
		`{"version":1,"outputs":{"big":1e308,"tiny":1e-400,"neg":-0.0,"e":1E+2}}`,
		`{"version":1,"outputs":{"huge":1e400}}`,
		// Strings: invalid UTF-8, surrogates paired and lone, escapes.
		"{\"version\":1,\"outputs\":{\"bad\":\"a\xffb\xc3\",\"\xfe\":\"k\"}}",
		`{"version":1,"outputs":{"pair":"😀","lone":"\ud83dx","low":"\ude00","two":"\ud83dA","esc":"\"\\\/\b\f\n\r\té"}}`,
		`{"version":1,"resources":{"a.b":{"type":"t","region":"ré"}}}`,
		// Times: what time.Time.UnmarshalJSON takes of the raw token.
		`{"version":1,"resources":{"a.b":{"created_at":null,"updated_at":"2026-01-02T03:04:05.123456789-07:30"}}}`,
		`{"version":1,"resources":{"a.b":{"created_at":"2026-01-02T03:04:05Z"}}}`,
		`{"version":1,"resources":{"a.b":{"created_at":"2026-13-02T03:04:05Z"}}}`,
		`{"version":1,"resources":{"a.b":{"created_at":0}}}`,
		// Values of the wrong kind.
		`{"version":1,"resources":[]}`, `{"version":1,"resources":{"a.b":5}}`, `{"version":1,"resources":{"a.b":{"id":5}}}`,
		`{"version":1,"resources":{"a.b":{"dependencies":"x"}}}`, `{"version":1,"resources":{"a.b":{"dependencies":[1]}}}`,
		`{"version":1,"resources":{"a.b":{"attrs":[1]}}}`, `{"version":true}`,
		// Syntax.
		`{"version":1,}`, `{"version":01}`, `{"version":1 "serial":2}`, `{"version":-}`, `{"version":1.}`,
		`{"version":1,"outputs":{"a":[1,]}}`, `{"version":1,"outputs":{"a":tru}}`, "{\"version\":1,\"outputs\":{\"a\":\"\t\"}}",
		`{"version":1,"outputs":{"a":"\x"}}`, `{"version":1,"outputs":{"a":"\u12"}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		ref, refErr := referenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode: %v; encoding/json: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if diff := stateDiff(s, ref); diff != "" {
			t.Fatalf("Decode and encoding/json read different states: %s", diff)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded state: %v", err)
		}
		// Encode indents every level, so a deep value costs it the square
		// of its depth: past 64 levels stateDiff alone compares the two
		// decoders, and only the round trip encodes.
		if nesting(data) <= 64 {
			if refEnc, err := ref.Encode(); err != nil || !bytes.Equal(enc, refEnc) {
				t.Fatalf("Decode and encoding/json read states that encode differently:\n%s\n---\n%s (%v)", enc, refEnc, err)
			}
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of an encoded state: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("Encode after a round trip: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the state:\n%s\n---\n%s", enc, again)
		}
		for addr, rs := range s.Resources {
			if got := back.Get(addr); got == nil || got.Generation != rs.Generation || got.ID != rs.ID {
				t.Fatalf("record %s came back as %+v, want generation %d", addr, got, rs.Generation)
			}
		}
	})
}

// stateDiff describes the first difference between two states, field by
// field (Encode would tell a nil slice from an empty one no more than it
// tells a missing attribute map from an empty one).
func stateDiff(a, b *State) string {
	if a.Serial != b.Serial || len(a.Resources) != len(b.Resources) || len(a.Outputs) != len(b.Outputs) {
		return fmt.Sprintf("serial %d/%d, %d/%d records, %d/%d outputs",
			a.Serial, b.Serial, len(a.Resources), len(b.Resources), len(a.Outputs), len(b.Outputs))
	}
	if !eval.Object(a.Outputs).Equal(eval.Object(b.Outputs)) {
		return fmt.Sprintf("outputs %v / %v", a.Outputs, b.Outputs)
	}
	sameTime := func(x, y time.Time) bool {
		return x.Equal(y) && x.Format(time.RFC3339Nano) == y.Format(time.RFC3339Nano)
	}
	for addr, x := range a.Resources {
		y := b.Resources[addr]
		switch {
		case y == nil:
			return "record " + addr + " missing"
		case x.Addr != y.Addr || x.Type != y.Type || x.ID != y.ID || x.Region != y.Region || x.Generation != y.Generation:
			return fmt.Sprintf("record %s: %+v / %+v", addr, x, y)
		case x.Attrs == nil || y.Attrs == nil || !eval.Object(x.Attrs).Equal(eval.Object(y.Attrs)):
			return fmt.Sprintf("record %s attrs: %v / %v", addr, x.Attrs, y.Attrs)
		case (x.Dependencies == nil) != (y.Dependencies == nil) || !slices.Equal(x.Dependencies, y.Dependencies):
			return fmt.Sprintf("record %s dependencies: %#v / %#v", addr, x.Dependencies, y.Dependencies)
		case !sameTime(x.CreatedAt, y.CreatedAt) || !sameTime(x.UpdatedAt, y.UpdatedAt):
			return fmt.Sprintf("record %s times: %v %v / %v %v", addr, x.CreatedAt, x.UpdatedAt, y.CreatedAt, y.UpdatedAt)
		}
	}
	return ""
}

// nesting bounds how deep data's objects and arrays nest (brackets inside
// strings count too).
func nesting(data []byte) int {
	depth, most := 0, 0
	for _, c := range data {
		switch c {
		case '{', '[':
			if depth++; depth > most {
				most = depth
			}
		case '}', ']':
			depth--
		}
	}
	return most
}

// TestDecodeNestingLimit: 10 000 nested objects and arrays is the most
// encoding/json takes, in a skipped field as in a value.
func TestDecodeNestingLimit(t *testing.T) {
	for _, tc := range []struct {
		field string
		depth int // of the document
		ok    bool
	}{
		{"skipped", 10000, true}, {"skipped", 10001, false},
		{"outputs", 10000, true}, {"outputs", 10001, false},
	} {
		inner := tc.depth - 1
		open := `{"version":1,"skipped":`
		if tc.field == "outputs" {
			inner--
			open = `{"version":1,"outputs":{"deep":`
		}
		doc := open + strings.Repeat("[", inner) + strings.Repeat("]", inner) + strings.Repeat("}", tc.depth-inner)
		s, err := Decode([]byte(doc))
		ref, refErr := referenceDecode([]byte(doc))
		if (err == nil) != tc.ok || (refErr == nil) != tc.ok {
			t.Fatalf("%s at depth %d: Decode %v, encoding/json %v; want ok=%v", tc.field, tc.depth, err, refErr, tc.ok)
		}
		if err == nil {
			if diff := stateDiff(s, ref); diff != "" {
				t.Fatalf("%s at depth %d: %s", tc.field, tc.depth, diff)
			}
		}
	}
}
