// Package seedflow_pos holds the seed origins determinism's seed rule must
// flag in result packages: bare magic literals, mutable package state,
// local variables and call results — all of which hide a "deterministic"
// stream's identity from the call site.
package seedflow_pos

import (
	"math/rand"
	randv2 "math/rand/v2"
)

var globalSeed int64

// bareLiteral seeds with a magic number nobody can audit from config.
func bareLiteral() *rand.Rand {
	return rand.New(rand.NewSource(12345))
}

// fromGlobal seeds from a mutable package variable.
func fromGlobal() *rand.Rand {
	return rand.New(rand.NewSource(globalSeed))
}

func pid() int64 { return globalSeed + 1 }

// fromOpaqueCall seeds from a call with no traceable operands.
func fromOpaqueCall() *rand.Rand {
	return rand.New(rand.NewSource(pid()))
}

// v2Literals seeds both PCG words with magic numbers.
func v2Literals() *randv2.Rand {
	return randv2.New(randv2.NewPCG(7, 9))
}

type config struct {
	Seed int64
}

// fromLocal seeds from a local: its value is set elsewhere in the body.
func fromLocal(cfg config) *rand.Rand {
	s := cfg.Seed
	return rand.New(rand.NewSource(s))
}

func mix(seed int64, name string) int64 {
	h := seed
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return h
}

// viaHash seeds from a call result, even one of config values.
func viaHash(cfg config, name string) *rand.Rand {
	return rand.New(rand.NewSource(mix(cfg.Seed, name)))
}
