package platform

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the stable on-disk schema for Profile.
type profileJSON struct {
	Version int         `json:"version"`
	Util    []float64   `json:"util"`
	Traffic [][]float64 `json:"traffic"`
}

// profileSchemaVersion guards against silently loading incompatible files.
const profileSchemaVersion = 1

// WriteProfile serializes a profile as JSON. Profiles are the hand-off
// artifact between the characterization run and the VFI design flow, so
// they can be captured once and re-planned offline (cmd/vfiplan -load).
func WriteProfile(w io.Writer, p Profile) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("platform: refusing to write invalid profile: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(profileJSON{
		Version: profileSchemaVersion,
		Util:    p.Util,
		Traffic: p.Traffic,
	})
}

// ReadProfile deserializes and validates a profile written by WriteProfile.
func ReadProfile(r io.Reader) (Profile, error) {
	var pj profileJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return Profile{}, fmt.Errorf("platform: decoding profile: %w", err)
	}
	if pj.Version != profileSchemaVersion {
		return Profile{}, fmt.Errorf("platform: profile schema version %d, want %d", pj.Version, profileSchemaVersion)
	}
	p := Profile{Util: pj.Util, Traffic: pj.Traffic}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("platform: loaded profile invalid: %w", err)
	}
	return p, nil
}

// vfiConfigJSON is the stable on-disk schema for VFIConfig.
type vfiConfigJSON struct {
	Version int              `json:"version"`
	Assign  []int            `json:"assign"`
	Points  []OperatingPoint `json:"points"`
}

// vfiConfigSchemaVersion versions the VFI-config schema independently of
// the profile schema (they used to share one constant, coupling two
// formats that evolve separately).
const vfiConfigSchemaVersion = 1

// WriteVFIConfig serializes a VFI configuration as JSON.
func WriteVFIConfig(w io.Writer, cfg VFIConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("platform: refusing to write invalid VFI config: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(vfiConfigJSON{
		Version: vfiConfigSchemaVersion,
		Assign:  cfg.Assign,
		Points:  cfg.Points,
	})
}

// ReadVFIConfig deserializes and validates a configuration written by
// WriteVFIConfig.
func ReadVFIConfig(r io.Reader) (VFIConfig, error) {
	var cj vfiConfigJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return VFIConfig{}, fmt.Errorf("platform: decoding VFI config: %w", err)
	}
	if cj.Version != vfiConfigSchemaVersion {
		return VFIConfig{}, fmt.Errorf("platform: VFI config schema version %d, want %d", cj.Version, vfiConfigSchemaVersion)
	}
	cfg := VFIConfig{Assign: cj.Assign, Points: cj.Points}
	if err := cfg.Validate(); err != nil {
		return VFIConfig{}, fmt.Errorf("platform: loaded VFI config invalid: %w", err)
	}
	return cfg, nil
}
