package state

import (
	"bytes"
	"os"
	"testing"
)

// FuzzStateDecode feeds arbitrary bytes to Decode, which reads snapshot.json
// and every commit-log frame of a state directory. It must not panic, and
// what it accepts must survive Encode and Decode unchanged. The seeds are a
// snapshot written before records had a generation and records that have
// one.
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
		`{"version":2}`, `{not json`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded state: %v", err)
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
