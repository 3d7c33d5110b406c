package state

import (
	"encoding/json"
	"fmt"

	"cloudless/internal/eval"
)

// referenceDecode is the decoder Decode replaced: encoding/json into the
// format's structs, then every attribute copied into an eval.Value. It is
// the oracle the fuzz targets hold Decode to — the same documents accepted,
// read to the same states.
func referenceDecode(data []byte) (*State, error) {
	var in stateJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("state: decode: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("state: unsupported version %d", in.Version)
	}
	s := New()
	s.Serial = in.Serial
	for addr, rj := range in.Resources {
		attrs := make(map[string]eval.Value, len(rj.Attrs))
		for k, v := range rj.Attrs {
			attrs[k] = eval.FromGoWithUnknowns(v)
		}
		s.Resources[addr] = &ResourceState{
			Addr: addr, Type: rj.Type, ID: rj.ID, Region: rj.Region,
			Attrs: attrs, Generation: rj.Generation, Dependencies: rj.Dependencies,
			CreatedAt: rj.CreatedAt, UpdatedAt: rj.UpdatedAt,
		}
	}
	for k, v := range in.Outputs {
		s.Outputs[k] = eval.FromGoWithUnknowns(v)
	}
	return s, nil
}
