// Package seedflow_neg holds the sanctioned seeding idioms that must
// stay clean under determinism's seed rule: seeds built, with arithmetic
// and conversions, from parameters, fields of parameters or receivers,
// and named constants — literals only as a salt on one of those.
package seedflow_neg

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// defaultSeed is the named, auditable fallback stream identity.
const defaultSeed = 0x5eed

type config struct {
	Seed int64
}

// fromParam: the seed is caller-controlled.
func fromParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// fromConfig: a config field reaches the source directly.
func fromConfig(cfg config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}

// fromReceiver: a field of the receiver is config too.
func (c config) rng() *rand.Rand {
	return rand.New(rand.NewSource(c.Seed))
}

// fromConst: the named constant is auditable.
func fromConst() *rand.Rand {
	return rand.New(rand.NewSource(defaultSeed))
}

// derivedArithmetic: streams split off a base seed stay derived.
func derivedArithmetic(cfg config, lane int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed*31 + lane))
}

// saltedParam: a literal may salt a traceable leaf.
func saltedParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 7))
}

// v2Derived: both PCG words derive from the config seed.
func v2Derived(cfg config) *randv2.Rand {
	return randv2.New(randv2.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)+defaultSeed))
}
