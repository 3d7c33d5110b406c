package statedb

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"slices"
	"testing"

	"cloudless/internal/state"
	"cloudless/internal/wal"
)

// referenceRecord is replay's reading of a payload as it was before
// readRecord: json.Unmarshal into walRecord, then, for a record above floor,
// state.Decode of its raw writes (FuzzStateDecode holds state.Decode to the
// encoding/json decoder in turn). ok is false for a record replay refuses.
func referenceRecord(payload []byte, floor int) (rec walRecord, ws *state.State, ok bool) {
	if json.Unmarshal(payload, &rec) != nil {
		return rec, nil, false
	}
	if rec.Serial <= floor {
		return rec, nil, true
	}
	ws = state.New()
	if len(rec.Writes) > 0 {
		var err error
		if ws, err = state.Decode(rec.Writes); err != nil {
			return rec, nil, false
		}
	}
	return rec, ws, true
}

// FuzzWALRecord holds readRecord, which reads every commit-log frame on
// open, to the decoder it replaced: the same payloads refused — wal.Open
// cuts the log at the first one, so a payload only readRecord refused would
// delete committed history — and the same commit read from the rest. The
// serial readSerial gives compaction must agree too. The seeds are the
// pr11-format fixture's frames and the corners where encoding/json's rules
// are easy to miss.
func FuzzWALRecord(f *testing.F) {
	if _, _, err := wal.Replay(filepath.Join("testdata", "pr11-format", walLogName), func(payload []byte) bool {
		f.Add(payload, 4)
		f.Add(payload, 6)
		return true
	}); err != nil {
		f.Fatal(err)
	}
	w := `{"version":1,"serial":3,"resources":{"aws_vpc.a":{"type":"aws_vpc","id":"vpc-1","attrs":{"n":1},"generation":1}},"outputs":{"o":"x"}}`
	for _, seed := range []string{
		`{"writes":` + w + `,"serial":3,"desc":"apply","set_outputs":true}`,
		`{"SERIAL":3,"Desc":"d","DELETES":["aws_vpc.b"],"Writes":` + w + `,"Set_Outputs":true}`,
		`{"ſerial":3,"deletes":["a","b","c"],"deletes":["d"],"deletes":[null,null],"writes":` + w + `}`,
		`{"serial":3,"serial":null,"desc":"a","desc":null,"writes":5,"writes":` + w + `}`,
		`{"serial":3,"writes":` + w + `,"writes":{"version":2}}`,
		`{"serial":3,"writes":null}`, `{"serial":3,"writes":{}}`, `{"serial":3,"writes":"x"}`,
		`{"serial":3,"writes":{"version":1,"resources":{"a.b":{"generation":1.0}}}}`,
		`{"serial":1,"writes":{"version":1,"resources":{"a.b":{"generation":1.0}}}}`,
		`{"serial":3,"writes":{"version":1,"resources":{"a.b":{"created_at":"yesterday"}}}}`,
		"{\"serial\":3,\"desc\":\"a\xffb\",\"deletes\":[\"\xfe\"],\"writes\":{\"version\":1,\"outputs\":{\"\xc3\":\"\\ud83d\"}}}",
		`{"serial":3.0}`, `{"serial":"3"}`, `{"serial":3,"set_outputs":1}`, `{"serial":3,"deletes":"a"}`,
		`{"serial":3,"unknown":{"writes":5}}`, `{"serial":3}`, `{}`, `null`, `[]`, ``, `{"serial":3} {}`,
		`{"serial":3,"writes":{"version":1,"resources":{}}`,
	} {
		f.Add([]byte(seed), 0)
		f.Add([]byte(seed), 3)
	}

	f.Fuzz(func(t *testing.T, payload []byte, floor int) {
		got, err := readRecord(payload, floor)
		ref, refWs, ok := referenceRecord(payload, floor)
		if (err == nil) != ok {
			t.Fatalf("readRecord: %v; encoding/json accepted: %v", err, ok)
		}
		serial, serr := readSerial(payload)
		var refSerial struct {
			Serial int `json:"serial"`
		}
		if rerr := json.Unmarshal(payload, &refSerial); (serr == nil) != (rerr == nil) || serr == nil && serial != refSerial.Serial {
			t.Fatalf("readSerial: %d, %v; encoding/json: %d, %v", serial, serr, refSerial.Serial, rerr)
		}
		if err != nil {
			return
		}
		if got.serial != ref.Serial || got.desc != ref.Desc || got.setOutputs != ref.SetOutputs ||
			(got.deletes == nil) != (ref.Deletes == nil) || !slices.Equal(got.deletes, ref.Deletes) {
			t.Fatalf("readRecord read %+v; encoding/json %+v", got, ref)
		}
		if got.serial <= floor || nesting(payload) > 64 {
			return // skipped by replay; or too deep for Encode's indentation to be cheap
		}
		ws := got.writes
		if ws == nil {
			ws = state.New()
		}
		enc, err := ws.Encode()
		refEnc, refErr := refWs.Encode()
		if (err == nil) != (refErr == nil) || !bytes.Equal(enc, refEnc) {
			t.Fatalf("writes read differently:\n%s (%v)\n---\n%s (%v)", enc, err, refEnc, refErr)
		}
	})
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
