package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// savedParam is the on-disk form of one parameter tensor.
type savedParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// EncodeParams serializes all parameter values in declaration order with
// encoding/gob — the unit the model artifact store reads and writes. The
// architecture itself is not serialized; callers must reconstruct the
// same network before decoding.
func EncodeParams(params []*Param) ([]byte, error) {
	out := make([]savedParam, len(params))
	for i, p := range params {
		out[i] = savedParam{Name: p.Name, Shape: p.Value.Shape(), Data: p.Value.Data()}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, fmt.Errorf("encode params: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeParams loads parameter values written by EncodeParams into params.
// Count and sizes must match exactly.
func DecodeParams(data []byte, params []*Param) error {
	var in []savedParam
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return fmt.Errorf("decode params: %w", err)
	}
	if len(in) != len(params) {
		return fmt.Errorf("param count mismatch: file has %d, network has %d", len(in), len(params))
	}
	for i, sp := range in {
		p := params[i]
		if p.Value.Len() != len(sp.Data) {
			return fmt.Errorf("param %d (%s): size %d vs file %d", i, p.Name, p.Value.Len(), len(sp.Data))
		}
		copy(p.Value.Data(), sp.Data)
		p.MarkMutated()
	}
	return nil
}
