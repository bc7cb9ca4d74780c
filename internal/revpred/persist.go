package revpred

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand/v2"

	"spottune/internal/market"
	"spottune/internal/nn"
)

// modelHeader is the gob-framed metadata preceding the weight blob. The
// paper trains one RevPred per market offline (§III-B); persistence lets a
// deployment train once and reuse models across campaigns.
type modelHeader struct {
	TypeName string
	OnDemand float64
	Hidden   int
	Depth    int
	PhiPos   float64
	PhiNeg   float64
}

// Save writes the model (architecture metadata + weights) to w.
func (m *Model) Save(w io.Writer) error {
	hdr := modelHeader{
		TypeName: m.Type.Name,
		OnDemand: m.Type.OnDemandPrice,
		Hidden:   m.Hidden,
		Depth:    len(m.hist.Layers),
		PhiPos:   m.PhiPos,
		PhiNeg:   m.PhiNeg,
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("revpred: encoding header: %w", err)
	}
	blob, err := nn.SaveBytes(m.Params())
	if err != nil {
		return err
	}
	if err := enc.Encode(blob); err != nil {
		return fmt.Errorf("revpred: encoding weights: %w", err)
	}
	return nil
}

// LoadModel reconstructs a model saved with Save. The provided instance
// type must match the one the model was trained for.
func LoadModel(r io.Reader, it market.InstanceType) (*Model, error) {
	dec := gob.NewDecoder(r)
	var hdr modelHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("revpred: decoding header: %w", err)
	}
	if hdr.TypeName != it.Name {
		return nil, fmt.Errorf("revpred: model trained for %q, loading as %q", hdr.TypeName, it.Name)
	}
	if hdr.Hidden <= 0 || hdr.Depth <= 0 {
		return nil, fmt.Errorf("revpred: corrupt header %+v", hdr)
	}
	var blob []byte
	if err := dec.Decode(&blob); err != nil {
		return nil, fmt.Errorf("revpred: decoding weights: %w", err)
	}
	// Weights are fully overwritten by Load; the RNG only seeds the
	// throwaway initialization.
	m := newModel(it, Config{Hidden: hdr.Hidden, Depth: hdr.Depth}.withDefaults(), rand.New(rand.NewPCG(0, 0)))
	m.PhiPos, m.PhiNeg = hdr.PhiPos, hdr.PhiNeg
	if err := nn.LoadBytes(blob, m.Params()); err != nil {
		return nil, err
	}
	m.packHit()
	return m, nil
}
