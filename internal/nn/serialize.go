package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// savedParam is the on-disk form of one parameter tensor.
type savedParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// SaveParams writes all parameter values to w in declaration order using
// encoding/gob. The architecture itself is not serialized; callers must
// reconstruct the same network before loading.
func SaveParams(w io.Writer, params []*Param) error {
	out := make([]savedParam, len(params))
	for i, p := range params {
		out[i] = savedParam{Name: p.Name, Shape: p.Value.Shape(), Data: p.Value.Data()}
	}
	if err := gob.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("encode params: %w", err)
	}
	return nil
}

// LoadParams reads parameter values written by SaveParams into params.
// Count and shapes must match exactly.
func LoadParams(r io.Reader, params []*Param) error {
	var in []savedParam
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
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

// EncodeParams serializes parameter values to a byte slice (SaveParams
// into memory) — the unit the model artifact store reads and writes.
func EncodeParams(params []*Param) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeParams loads parameter values from a byte slice written by
// EncodeParams (or SaveParams). Count and shapes must match exactly.
func DecodeParams(data []byte, params []*Param) error {
	return LoadParams(bytes.NewReader(data), params)
}
