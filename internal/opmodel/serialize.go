package opmodel

import (
	"encoding/json"
	"fmt"
	"io"

	"twocs/internal/model"
	"twocs/internal/profile"
	"twocs/internal/stats"
)

// Calibration is the persistent form of a calibrated operator-level
// model: everything needed to reproduce projections without re-profiling.
// Profiles are expensive (they run on hardware); fitted models are cheap
// JSON — so a team profiles once and ships the calibration.
type Calibration struct {
	// Version guards the format.
	Version int `json:"version"`

	Base   model.Config `json:"base"`
	BaseTP int          `json:"base_tp"`

	Records []profile.Record `json:"records"`

	ARSlope     float64 `json:"ar_slope"`
	ARIntercept float64 `json:"ar_intercept"`
	ARGroup     int     `json:"ar_group"`
	HasAR       bool    `json:"has_ar"`
}

// calibrationVersion is the current serialization format version.
const calibrationVersion = 1

// Save writes the model's calibration as JSON.
func (m *Model) Save(w io.Writer) error {
	c := Calibration{
		Version:     calibrationVersion,
		Base:        m.base,
		BaseTP:      m.baseTP,
		ARSlope:     m.arFit.Slope,
		ARIntercept: m.arFit.Intercept,
		ARGroup:     m.arGroup,
		HasAR:       m.hasAR,
	}
	// Deterministic order: walk the baseline layer graph rather than
	// the map.
	ops, err := model.LayerOps(m.base, m.baseTP)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if r, ok := m.records[op.Name]; ok {
			c.Records = append(c.Records, r)
		}
	}
	if len(c.Records) != len(m.records) {
		return fmt.Errorf("opmodel: %d records not reachable from the layer graph", len(m.records)-len(c.Records))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Load reconstructs a model from a saved calibration.
func Load(r io.Reader) (*Model, error) {
	var c Calibration
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("opmodel: decoding calibration: %w", err)
	}
	if c.Version != calibrationVersion {
		return nil, fmt.Errorf("opmodel: unsupported calibration version %d", c.Version)
	}
	if err := c.Base.ValidateTP(c.BaseTP); err != nil {
		return nil, err
	}
	if len(c.Records) == 0 {
		return nil, fmt.Errorf("opmodel: calibration has no records")
	}
	m := &Model{
		base:    c.Base,
		baseTP:  c.BaseTP,
		records: make(map[string]profile.Record, len(c.Records)),
		arFit:   stats.Affine{Slope: c.ARSlope, Intercept: c.ARIntercept},
		arGroup: c.ARGroup,
		hasAR:   c.HasAR,
		proj:    newProjMemo(),
	}
	for _, rec := range c.Records {
		if rec.Time <= 0 {
			return nil, fmt.Errorf("opmodel: record %q has non-positive time", rec.Op.Name)
		}
		if _, dup := m.records[rec.Op.Name]; dup {
			return nil, fmt.Errorf("opmodel: duplicate record %q", rec.Op.Name)
		}
		m.records[rec.Op.Name] = rec
	}
	if m.hasAR && (m.arGroup < 2 || m.arFit.Slope <= 0) {
		return nil, fmt.Errorf("opmodel: corrupt all-reduce calibration (group=%d slope=%v)",
			m.arGroup, m.arFit.Slope)
	}
	return m, nil
}
