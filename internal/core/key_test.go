package core

import (
	"errors"
	"strings"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/phtype"
)

func keyTestConfig(t *testing.T) Config {
	t.Helper()
	m, err := arrival.MMPP2(9e-7, 1.9e-6, 1e-4, 3.5e-2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Arrival:     m,
		ServiceRate: 1.0 / 6,
		BGProb:      0.3,
		BGBuffer:    5,
		IdleRate:    1.0 / 6,
	}
}

func TestCacheKeyDeterministic(t *testing.T) {
	cfg := keyTestConfig(t)
	k1, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same config hashed to %s and %s", k1, k2)
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("want lowercase hex sha256, got %q", k1)
	}
}

// TestCacheKeyDefaultsApplied pins that the zero IdlePolicy and the explicit
// default hash identically: the key is an identity of the *model*, not of
// the literal struct.
func TestCacheKeyDefaultsApplied(t *testing.T) {
	cfg := keyTestConfig(t)
	implicit, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IdlePolicy = IdleWaitPerJob
	explicit, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Fatalf("zero-value policy key %s != explicit default key %s", implicit, explicit)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := keyTestConfig(t)
	baseKey, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := phtype.Erlang(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	otherMAP, err := arrival.MMPP2(9e-7, 1.9e-6, 1e-4, 3.6e-2)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"Arrival":     func(c *Config) { c.Arrival = otherMAP },
		"ServiceRate": func(c *Config) { c.ServiceRate = 1.0 / 7 },
		"Service":     func(c *Config) { c.ServiceRate = 0; c.Service = ph },
		"ServiceMAP":  func(c *Config) { c.ServiceRate = 0; c.ServiceMAP = otherMAP },
		"BGProb":      func(c *Config) { c.BGProb = 0.31 },
		"BGBuffer":    func(c *Config) { c.BGBuffer = 6 },
		"IdleRate":    func(c *Config) { c.IdleRate = 1.0 / 12 },
		"IdleWait":    func(c *Config) { c.IdleRate = 0; c.IdleWait = ph },
		"IdlePolicy":  func(c *Config) { c.IdlePolicy = IdleWaitPerPeriod },
		"ModFactor":   func(c *Config) { c.ModFactor = 0.8 },
		"BGAdmit":     func(c *Config) { c.BGAdmit = AdmitUtilThreshold },
		"FGThreshold": func(c *Config) { c.BGAdmit = AdmitUtilThreshold; c.FGThreshold = 2 },
		"DeadlineRate": func(c *Config) {
			c.BGAdmit = AdmitDeadline
			c.DeadlineRate = 0.5
		},
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		key, err := CacheKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

// TestCacheKeyPinnedStability pins the literal key bytes of pre-PR 10
// configurations. The scenario fields (ModFactor, BGAdmit, FGThreshold,
// DeadlineRate) are hashed only when they deviate from their defaults, so
// every key minted before the fields existed must still verbatim: these
// hex strings were captured from the CacheKey implementation before the
// scenario fields were added, and any drift would orphan on-disk cas
// entries and distributed cache state.
func TestCacheKeyPinnedStability(t *testing.T) {
	cfg := keyTestConfig(t)
	key, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const wantBase = "185d549102729fd83b5856d62b6a28702961a91479a75b31eea8b7f5270ff871"
	if key != wantBase {
		t.Errorf("pre-PR10 base key drifted:\n  got  %s\n  want %s", key, wantBase)
	}
	cfg.IdlePolicy = IdleWaitPerPeriod
	key, err = CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const wantPeriod = "8ffb0f491ec71cd6ad161986bfd9f09b5589ba554a8bc50e5307706feee0b9d9"
	if key != wantPeriod {
		t.Errorf("pre-PR10 per-period key drifted:\n  got  %s\n  want %s", key, wantPeriod)
	}
}

// TestCacheKeyScenarioDefaults pins that the explicit scenario defaults
// (φ = 1, AdmitAll) hash identically to leaving the fields unset — the new
// fields are written to the hash only when they carry information.
func TestCacheKeyScenarioDefaults(t *testing.T) {
	base := keyTestConfig(t)
	implicit, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	base.ModFactor = 1
	base.BGAdmit = AdmitAll
	explicit, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Fatalf("explicit scenario defaults perturbed the key:\n  unset    %s\n  explicit %s", implicit, explicit)
	}
}

// TestCacheKeyScenarioTagDisambiguation pins that the two policy payloads
// cannot collide through their tag prefixes: a util-threshold config and a
// deadline config whose scalar payloads share a bit pattern still hash
// differently, and each policy differs from the baseline.
func TestCacheKeyScenarioTagDisambiguation(t *testing.T) {
	base := keyTestConfig(t)
	util := base
	util.BGAdmit = AdmitUtilThreshold
	util.FGThreshold = 0
	utilKey, err := CacheKey(util)
	if err != nil {
		t.Fatal(err)
	}
	deadline := base
	deadline.BGAdmit = AdmitDeadline
	deadline.DeadlineRate = 1
	deadlineKey, err := CacheKey(deadline)
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if utilKey == deadlineKey || utilKey == baseKey || deadlineKey == baseKey {
		t.Fatalf("scenario policy keys collided: base %s, util %s, deadline %s", baseKey, utilKey, deadlineKey)
	}
	// The threshold payload must be sensitive even at its zero value versus
	// a different K.
	util2 := util
	util2.FGThreshold = 1
	util2Key, err := CacheKey(util2)
	if err != nil {
		t.Fatal(err)
	}
	if util2Key == utilKey {
		t.Fatal("FGThreshold 0 and 1 collided under util-threshold")
	}
	// A second BG class must key apart from its single-class twin (same
	// class-1 fields), and its buffer must be part of the payload; a zero
	// class-2 probability leaves the single-class key untouched.
	twoClass := base
	twoClass.BG2Prob = 0.2
	twoClass.BG2Buffer = 3
	twoKey, err := CacheKey(twoClass)
	if err != nil {
		t.Fatal(err)
	}
	twoClass.BG2Buffer = 4
	twoKey4, err := CacheKey(twoClass)
	if err != nil {
		t.Fatal(err)
	}
	if twoKey == baseKey || twoKey == twoKey4 {
		t.Fatalf("two-class keys collided: base %s, X2=3 %s, X2=4 %s", baseKey, twoKey, twoKey4)
	}
	noClass2 := base
	noClass2.BG2Buffer = 3
	if k, err := CacheKey(noClass2); err != nil || k != baseKey {
		t.Fatalf("BG2Prob = 0 perturbed the key: %s vs %s (%v)", k, baseKey, err)
	}
}

// TestCacheKeyTagDisambiguation pins that an exponential service given as a
// rate and the same law given as a one-phase PH hash differently: the key
// identifies the configuration, and the chain builders treat the two
// representations through different code paths.
func TestCacheKeyTagDisambiguation(t *testing.T) {
	cfg := keyTestConfig(t)
	rateKey, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := phtype.Exponential(cfg.ServiceRate)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServiceRate = 0
	cfg.Service = exp
	phKey, err := CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rateKey == phKey {
		t.Fatal("rate-form and PH-form service collided")
	}
}

func TestCacheKeyInvalidConfig(t *testing.T) {
	_, err := CacheKey(Config{})
	if err == nil {
		t.Fatal("want validation error for zero Config")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
}

// TestValidCacheKey pins the key-shape gate the disk store relies on: real
// CacheKey output passes, and anything that could escape a file-per-key
// directory layout (path separators, dots, wrong length, uppercase hex)
// is rejected.
func TestValidCacheKey(t *testing.T) {
	key, err := CacheKey(keyTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !ValidCacheKey(key) {
		t.Fatalf("real cache key rejected: %q", key)
	}
	bad := []string{
		"",
		"abc",
		strings.Repeat("a", 63),
		strings.Repeat("a", 65),
		strings.Repeat("A", 64),         // uppercase hex
		strings.Repeat("g", 64),         // not hex
		"../" + strings.Repeat("a", 61), // path traversal
		strings.Repeat("a", 32) + "." + strings.Repeat("a", 31),
	}
	for _, s := range bad {
		if ValidCacheKey(s) {
			t.Errorf("ValidCacheKey(%q) = true, want false", s)
		}
	}
}
