package platform

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func randomProfile(seed int64, n int) Profile {
	rng := rand.New(rand.NewSource(seed))
	p := Profile{Util: make([]float64, n), Traffic: make([][]float64, n)}
	for i := range p.Util {
		p.Util[i] = rng.Float64()
		p.Traffic[i] = make([]float64, n)
		for j := range p.Traffic[i] {
			if i != j {
				p.Traffic[i][j] = rng.Float64() * 10
			}
		}
	}
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := randomProfile(1, 16)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Util {
		if got.Util[i] != p.Util[i] {
			t.Fatalf("util[%d] changed: %v vs %v", i, got.Util[i], p.Util[i])
		}
		for j := range p.Traffic[i] {
			if got.Traffic[i][j] != p.Traffic[i][j] {
				t.Fatalf("traffic[%d][%d] changed", i, j)
			}
		}
	}
}

func TestWriteProfileRejectsInvalid(t *testing.T) {
	bad := Profile{Util: []float64{2}, Traffic: [][]float64{{0}}}
	if err := WriteProfile(&bytes.Buffer{}, bad); err == nil {
		t.Error("invalid profile written")
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := ReadProfile(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadProfile(strings.NewReader(`{"version":99,"util":[0.5],"traffic":[[0]]}`)); err == nil {
		t.Error("wrong schema version accepted")
	}
	// structurally valid JSON, semantically invalid profile
	if _, err := ReadProfile(strings.NewReader(`{"version":1,"util":[1.5],"traffic":[[0]]}`)); err == nil {
		t.Error("out-of-range utilization accepted")
	}
}

func TestVFIConfigRoundTrip(t *testing.T) {
	cfg := VFIConfig{
		Assign: []int{0, 1, 0, 1},
		Points: []OperatingPoint{{VoltageV: 0.8, FreqGHz: 2.0}, {VoltageV: 1.0, FreqGHz: 2.5}},
	}
	var buf bytes.Buffer
	if err := WriteVFIConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVFIConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Assign {
		if got.Assign[i] != cfg.Assign[i] {
			t.Fatal("assignment changed")
		}
	}
	for j := range cfg.Points {
		if got.Points[j] != cfg.Points[j] {
			t.Fatal("points changed")
		}
	}
}

func TestReadVFIConfigRejectsInvalid(t *testing.T) {
	if _, err := ReadVFIConfig(strings.NewReader(`{"version":1,"assign":[5],"points":[{"VoltageV":1,"FreqGHz":2.5}]}`)); err == nil {
		t.Error("invalid island index accepted")
	}
	if err := WriteVFIConfig(&bytes.Buffer{}, VFIConfig{}); err == nil {
		t.Error("empty config written")
	}
}
