package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"bgperf/internal/arrival"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
)

// Field tags of the canonical Config encoding hashed by CacheKey. Every
// optional component writes its tag before its payload, so "Service unset"
// and "Service set to an empty-looking distribution" can never collide, and
// new fields can be appended without perturbing existing keys.
const (
	keyTagArrival byte = iota + 1
	keyTagServiceRate
	keyTagServicePH
	keyTagServiceMAP
	keyTagBGProb
	keyTagBGBuffer
	keyTagIdleRate
	keyTagIdlePH
	keyTagIdlePolicy
	// PR 10 scenario fields. Each is written only when it deviates from its
	// default (φ = 1, AdmitAll), so every pre-existing configuration keeps
	// its byte-identical key, and the tag prefix keeps a modulated or
	// policy-carrying config from ever colliding with a baseline one.
	keyTagModFactor
	keyTagBGAdmit
	keyTagFGThreshold
	keyTagDeadlineRate
	// The second BG class, written only when it is present (BG2Prob > 0),
	// so every single-class configuration keeps its key.
	keyTagBG2
)

// KeySectionPlan tags the planner extension section appended by CacheKeyExt:
// the inverse solver's SLO bounds, decision variable, and search knobs. The
// value sits far above the config field tags so a future config field can
// never collide with a section tag.
const KeySectionPlan byte = 0x50

// CacheKey returns a canonical, collision-resistant identity for a model
// configuration: the hex-encoded SHA-256 of a tagged binary encoding of the
// validated Config (defaults applied). Two configurations receive the same
// key exactly when they describe the same chain — the same arrival MAP
// matrices, service law, BG probabilities and buffers, idle-wait law, and
// idle policy — which makes the key safe to use for memoizing Solve results:
// identical keys always yield bit-identical solutions. Invalid
// configurations return the same *ValidationError that NewModel would.
func CacheKey(cfg Config) (string, error) {
	h := sha256.New()
	if err := hashConfig(h, cfg); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CacheKeyExt returns CacheKey(cfg) extended with a tagged trailing section
// of scalar parameters — the identity of a derived computation over the
// configuration (a capacity plan, say) rather than of the bare solve. The
// section byte (KeySectionPlan, …) namespaces the extension: the same
// scalars under different sections, and a plain CacheKey with no section,
// can never collide. Invalid configurations return the same
// *ValidationError that NewModel would.
func CacheKeyExt(cfg Config, section byte, ints []int64, floats []float64) (string, error) {
	h := sha256.New()
	if err := hashConfig(h, cfg); err != nil {
		return "", err
	}
	keyInts(h, section, int64(len(ints)), int64(len(floats)))
	keyInts(h, section, ints...)
	keyFloats(h, section, floats...)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ValidCacheKey reports whether s has the shape of a key produced by
// CacheKey or CacheKeyExt: exactly 64 lowercase hexadecimal characters (a
// hex-encoded SHA-256). Stores that use cache keys as on-disk file names
// (internal/cas) gate on this before touching the filesystem, so a
// corrupted or adversarial key can never escape the store's directory or
// collide with its temp-file and quarantine namespaces.
func ValidCacheKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// hashConfig writes the tagged canonical encoding of the validated config
// (defaults applied) into the hash.
func hashConfig(h hash.Hash, cfg Config) error {
	cfg, err := cfg.Resolve()
	if err != nil {
		return err
	}
	keyMAP(h, keyTagArrival, cfg.Arrival)
	switch {
	case cfg.Service != nil:
		keyPH(h, keyTagServicePH, cfg.Service)
	case cfg.ServiceMAP != nil:
		keyMAP(h, keyTagServiceMAP, cfg.ServiceMAP)
	default:
		keyFloats(h, keyTagServiceRate, cfg.ServiceRate)
	}
	keyFloats(h, keyTagBGProb, cfg.BGProb)
	keyInts(h, keyTagBGBuffer, int64(cfg.BGBuffer))
	if cfg.IdleWait != nil {
		keyPH(h, keyTagIdlePH, cfg.IdleWait)
	} else {
		keyFloats(h, keyTagIdleRate, cfg.IdleRate)
	}
	keyInts(h, keyTagIdlePolicy, int64(cfg.IdlePolicy))
	if cfg.ModFactor != 1 {
		keyFloats(h, keyTagModFactor, cfg.ModFactor)
	}
	if cfg.BGAdmit != AdmitAll {
		keyInts(h, keyTagBGAdmit, int64(cfg.BGAdmit))
		switch cfg.BGAdmit {
		case AdmitUtilThreshold:
			keyInts(h, keyTagFGThreshold, int64(cfg.FGThreshold))
		case AdmitDeadline:
			keyFloats(h, keyTagDeadlineRate, cfg.DeadlineRate)
		}
	}
	if cfg.BG2Prob > 0 {
		keyFloats(h, keyTagBG2, cfg.BG2Prob)
		binary.Write(h, binary.LittleEndian, int64(cfg.BG2Buffer))
	}
	return nil
}

// keyInts writes a tagged sequence of integers into the hash.
func keyInts(h hash.Hash, tag byte, vals ...int64) {
	h.Write([]byte{tag})
	for _, v := range vals {
		binary.Write(h, binary.LittleEndian, v)
	}
}

// keyFloats writes a tagged sequence of float64 bit patterns into the hash.
func keyFloats(h hash.Hash, tag byte, vals ...float64) {
	h.Write([]byte{tag})
	for _, v := range vals {
		binary.Write(h, binary.LittleEndian, v)
	}
}

// keyMatrix writes a dimension-prefixed dense matrix into the hash.
func keyMatrix(h hash.Hash, m *mat.Matrix) {
	binary.Write(h, binary.LittleEndian, int64(m.Rows()))
	binary.Write(h, binary.LittleEndian, int64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			binary.Write(h, binary.LittleEndian, m.At(i, j))
		}
	}
}

// keyMAP writes a tagged (D0, D1) MAP description into the hash.
func keyMAP(h hash.Hash, tag byte, m *arrival.MAP) {
	h.Write([]byte{tag})
	keyMatrix(h, m.D0())
	keyMatrix(h, m.D1())
}

// keyPH writes a tagged (β, T) phase-type description into the hash.
func keyPH(h hash.Hash, tag byte, d *phtype.Dist) {
	h.Write([]byte{tag})
	beta := d.Beta()
	binary.Write(h, binary.LittleEndian, int64(len(beta)))
	for _, b := range beta {
		binary.Write(h, binary.LittleEndian, b)
	}
	keyMatrix(h, d.T())
}
