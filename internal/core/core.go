// Package core implements the paper's primary contribution: the analytic
// performability model of a storage system serving foreground (FG) user
// requests and best-effort background (BG) jobs (DSN 2006, Sec. 3–4).
//
// The system is a single non-preemptive FCFS server with exponential service
// (rate µ). FG jobs arrive according to a MAP (the paper uses 2-state MMPPs
// fitted to disk traces). Each FG completion generates a BG job with
// probability p. BG jobs occupy a finite buffer of size X and are served only
// while no FG job is present, after an exponentially distributed idle wait
// (rate α); a BG job generated while the buffer is full is dropped. Neither
// class preempts the other — the disk-seek argument of the paper.
//
// The resulting Markov chain is a Quasi-Birth-Death process. The paper
// levels it by the total job count x+y (Eq. 5); this package levels it by
// the FG count y and carries the server condition and the BG count x in
// the phase. That is the same chain: FG arrivals move up a level, every FG
// completion (with or without generating a BG job) moves down one, and
// everything else stays within a level. Idle-wait, empty, and y = 0
// BG-serving states exist only at level 0, so the boundary is level 0 alone
// (levels 0..K+1 under the util-threshold admission policy, whose admission
// depends on y). Package qbd solves the chain with the matrix-geometric
// method, and Solution exposes the paper's four metrics (FG queue length,
// FG-delayed percentage, BG completion rate, BG queue length) plus
// supporting rates and distributions.
//
// Config.BG2Prob adds the extension the paper announces as future work
// (Sec. 6): a second, low-priority BG class with its own buffer, served
// only when no class-1 job waits. It is one more dimension of the same
// builder — blocks carry a class-2 count — so it composes with the PH/MAP
// service, PH idle-wait, and modulation kernels unchanged; Metrics.BG2
// reports the class-2 metrics.
package core

import (
	"errors"
	"fmt"

	"bgperf/internal/arrival"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
)

// ErrConfig reports an invalid model configuration.
var ErrConfig = errors.New("core: invalid configuration")

// IdleWaitPolicy selects when the server re-arms the idle-wait timer.
type IdleWaitPolicy int

const (
	// IdleWaitPerJob re-arms the idle-wait timer after every completed BG
	// job: each BG service during an idle period is preceded by a fresh
	// exponential wait. This matches the symmetric (x,0)/(x',0) state pairs
	// of the paper's chain and is the default.
	IdleWaitPerJob IdleWaitPolicy = iota + 1
	// IdleWaitPerPeriod waits once per idle period and then drains BG jobs
	// back to back until an FG job arrives.
	IdleWaitPerPeriod
)

func (p IdleWaitPolicy) String() string {
	switch p {
	case IdleWaitPerJob:
		return "per-job"
	case IdleWaitPerPeriod:
		return "per-period"
	default:
		return fmt.Sprintf("IdleWaitPolicy(%d)", int(p))
	}
}

// ParseIdleWaitPolicy is the inverse of IdleWaitPolicy.String: it maps
// "per-job" and "per-period" back to the policy constants, so CLI flags and
// JSON configs round-trip without hard-coding integers.
func ParseIdleWaitPolicy(s string) (IdleWaitPolicy, error) {
	switch s {
	case "per-job":
		return IdleWaitPerJob, nil
	case "per-period":
		return IdleWaitPerPeriod, nil
	default:
		return 0, NewValidationError(ErrConfig, "IdlePolicy", "unknown idle-wait policy %q (want per-job or per-period)", s)
	}
}

// BGAdmission selects how BG jobs generated at FG completions are admitted
// into the buffer — the paper's blind admit-if-space policy or one of the
// smart background schedulers of Kachmar's follow-up work.
type BGAdmission int

const (
	// AdmitAll admits every generated BG job that finds buffer space — the
	// paper's blind policy and the default.
	AdmitAll BGAdmission = iota + 1
	// AdmitUtilThreshold admits a generated BG job only when, besides buffer
	// space, the foreground backlog the completing job leaves behind is at
	// most FGThreshold jobs: BG work is accepted only while the system looks
	// lightly utilized. Denied jobs are dropped (counted in DropRateBG).
	AdmitUtilThreshold
	// AdmitDeadline admits every generated BG job that finds buffer space
	// (like AdmitAll) but attaches an exponential deadline with rate
	// DeadlineRate to each *waiting* BG job: a job whose deadline expires
	// before its service starts reneges and leaves. The DeadlineMissBG
	// metric reports the fraction of admitted jobs lost this way.
	AdmitDeadline
)

func (a BGAdmission) String() string {
	switch a {
	case AdmitAll:
		return "all"
	case AdmitUtilThreshold:
		return "util-threshold"
	case AdmitDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("BGAdmission(%d)", int(a))
	}
}

// ParseBGAdmission is the inverse of BGAdmission.String. The empty string
// maps to AdmitAll so optional CLI flags and JSON fields default cleanly;
// anything else unknown returns a typed *ValidationError.
func ParseBGAdmission(s string) (BGAdmission, error) {
	switch s {
	case "", "all":
		return AdmitAll, nil
	case "util-threshold":
		return AdmitUtilThreshold, nil
	case "deadline":
		return AdmitDeadline, nil
	default:
		return 0, NewValidationError(ErrConfig, "BGAdmit", "unknown BG admission policy %q (want all, util-threshold, or deadline)", s)
	}
}

// Config parameterizes the FG/BG model.
type Config struct {
	// Arrival is the FG arrival process (MMPP in the paper).
	Arrival *arrival.MAP
	// ServiceRate is µ, the exponential service rate shared by FG and BG
	// jobs (the paper studies BG work such as WRITE verification whose
	// demands match FG demands). Leave it 0 when Service is set.
	ServiceRate float64
	// Service optionally replaces the exponential service law with a
	// phase-type distribution (the paper's footnote 3 extension, built with
	// Kronecker products). When set, ServiceRate must be 0 — the mean rate
	// is implied. The PH representation must have every phase reachable
	// from the support of its initial vector.
	Service *phtype.Dist
	// ServiceMAP optionally makes service times a Markovian Arrival
	// Process: consecutive service times are *correlated* (disk locality
	// streaks), with the service phase carried from job to job and frozen
	// while the server is not serving. Mutually exclusive with ServiceRate
	// and Service.
	ServiceMAP *arrival.MAP
	// BGProb is p, the probability that a completing FG job generates a BG
	// job, in [0, 1].
	BGProb float64
	// BGBuffer is X, the BG buffer capacity (paper default 5). X = 0 models
	// a system that drops all BG work.
	BGBuffer int
	// BG2Prob is p2, the probability that a completing FG job generates a
	// class-2 BG job instead (BGProb + BG2Prob ≤ 1). Zero, the default, is
	// the paper's single-class model. Above zero the model has the two
	// background priority levels the paper announces as future work
	// (Sec. 6): BGProb and BGBuffer then describe class 1 (say, urgent WRITE
	// verification), which the server picks before class 2 (bulk scrubbing)
	// whenever an idle wait expires or per-period draining continues. Not
	// supported with the util-threshold or deadline admission policies.
	BG2Prob float64
	// BG2Buffer is X2, the class-2 buffer capacity.
	BG2Buffer int
	// IdleRate is α, the rate of the exponential idle wait before BG
	// service begins (paper default: 1/mean service time). Required
	// positive when BGBuffer > 0, unless IdleWait is set.
	IdleRate float64
	// IdleWait optionally replaces the exponential idle wait with a
	// phase-type distribution (the remaining footnote-3 generalization;
	// e.g. an Erlang-k approximates the deterministic timers of real
	// firmware). When set, IdleRate must be 0.
	IdleWait *phtype.Dist
	// IdlePolicy selects the idle-wait re-arming semantics; zero value
	// means IdleWaitPerJob.
	IdlePolicy IdleWaitPolicy
	// ModFactor is the capacity-modulation factor φ ∈ (0, 1]: while any BG
	// work is in the system (in service or waiting) the server runs at rate
	// φ·µ instead of µ — Marin–Mitrani's speed-modulated FG-BG model, where
	// background activity degrades foreground capacity. Zero means 1 (no
	// modulation), the paper's fixed-capacity server.
	ModFactor float64
	// BGAdmit selects the BG admission policy; zero value means AdmitAll.
	BGAdmit BGAdmission
	// FGThreshold is the utilization threshold K of AdmitUtilThreshold: a
	// generated BG job is admitted only when at most K foreground jobs
	// remain behind the completing one. Must be 0 unless BGAdmit is
	// AdmitUtilThreshold.
	FGThreshold int
	// DeadlineRate is the renege rate δ of AdmitDeadline: each waiting BG
	// job independently abandons after an exponential deadline with rate δ.
	// Required positive exactly when BGAdmit is AdmitDeadline.
	DeadlineRate float64
}

// Resolve applies the zero-value defaults (per-job idle waits, φ = 1,
// admit-all) and validates the result, returning the resolved config. It is
// the one rule set for a model: NewModel, CacheKey and the simulator
// (package sim) all accept exactly the configs it accepts. Errors are
// *ValidationError wrapping ErrConfig and naming the offending field.
func (c Config) Resolve() (Config, error) {
	c = c.withDefaults()
	return c, c.validate()
}

func (c Config) withDefaults() Config {
	if c.IdlePolicy == 0 {
		c.IdlePolicy = IdleWaitPerJob
	}
	if c.ModFactor == 0 {
		c.ModFactor = 1
	}
	if c.BGAdmit == 0 {
		c.BGAdmit = AdmitAll
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Arrival == nil:
		return NewValidationError(ErrConfig, "Arrival", "nil arrival process")
	case c.Service == nil && c.ServiceMAP == nil && c.ServiceRate <= 0:
		return NewValidationError(ErrConfig, "ServiceRate", "service rate %g must be positive", c.ServiceRate)
	case c.Service != nil && (c.ServiceRate != 0 || c.ServiceMAP != nil):
		return NewValidationError(ErrConfig, "Service", "set exactly one of ServiceRate, Service, ServiceMAP")
	case c.ServiceMAP != nil && c.ServiceRate != 0:
		return NewValidationError(ErrConfig, "ServiceMAP", "set exactly one of ServiceRate, Service, ServiceMAP")
	case c.BGProb < 0 || c.BGProb > 1:
		return NewValidationError(ErrConfig, "BGProb", "BG probability %g must lie in [0,1]", c.BGProb)
	case c.BGBuffer < 0:
		return NewValidationError(ErrConfig, "BGBuffer", "BG buffer %d must be nonnegative", c.BGBuffer)
	case c.BG2Prob < 0 || c.BG2Prob > 1:
		return NewValidationError(ErrConfig, "BG2Prob", "class-2 BG probability %g must lie in [0,1]", c.BG2Prob)
	case c.BGProb+c.BG2Prob > 1:
		return NewValidationError(ErrConfig, "BG2Prob", "BG probabilities %g + %g exceed 1", c.BGProb, c.BG2Prob)
	case c.BG2Buffer < 0:
		return NewValidationError(ErrConfig, "BG2Buffer", "class-2 BG buffer %d must be nonnegative", c.BG2Buffer)
	case c.IdleWait != nil && c.IdleRate != 0:
		return NewValidationError(ErrConfig, "IdleWait", "set either IdleRate or IdleWait, not both")
	case (c.BGBuffer > 0 || c.BG2Buffer > 0) && c.IdleRate <= 0 && c.IdleWait == nil:
		return NewValidationError(ErrConfig, "IdleRate", "idle rate %g must be positive when the BG buffer is nonempty", c.IdleRate)
	case c.IdlePolicy != IdleWaitPerJob && c.IdlePolicy != IdleWaitPerPeriod:
		return NewValidationError(ErrConfig, "IdlePolicy", "unknown idle-wait policy %d", int(c.IdlePolicy))
	case !(c.ModFactor > 0 && c.ModFactor <= 1):
		return NewValidationError(ErrConfig, "ModFactor", "modulation factor %g must lie in (0,1]", c.ModFactor)
	case c.BGAdmit != AdmitAll && c.BGAdmit != AdmitUtilThreshold && c.BGAdmit != AdmitDeadline:
		return NewValidationError(ErrConfig, "BGAdmit", "unknown BG admission policy %d", int(c.BGAdmit))
	case c.FGThreshold < 0:
		return NewValidationError(ErrConfig, "FGThreshold", "FG threshold %d must be nonnegative", c.FGThreshold)
	case c.FGThreshold != 0 && c.BGAdmit != AdmitUtilThreshold:
		return NewValidationError(ErrConfig, "FGThreshold", "FG threshold requires the util-threshold admission policy")
	case c.BGAdmit == AdmitDeadline && c.DeadlineRate <= 0:
		return NewValidationError(ErrConfig, "DeadlineRate", "deadline rate %g must be positive with the deadline admission policy", c.DeadlineRate)
	case c.BGAdmit != AdmitDeadline && c.DeadlineRate != 0:
		return NewValidationError(ErrConfig, "DeadlineRate", "deadline rate requires the deadline admission policy")
	case c.BG2Prob > 0 && c.BGAdmit != AdmitAll:
		return NewValidationError(ErrConfig, "BG2Prob", "a second BG class is not supported with the %v admission policy", c.BGAdmit)
	}
	return nil
}

// Kind classifies the server condition of a chain state.
type Kind int

const (
	// KindEmpty is the empty system (no jobs at all).
	KindEmpty Kind = iota + 1
	// KindFG is a state with a foreground job in service.
	KindFG
	// KindBG is a state with a background job in service.
	KindBG
	// KindIdle is an idle-wait state: BG jobs present, server idle, timer
	// running.
	KindIdle
	// KindBG2 is a state with a class-2 background job in service (two-class
	// models only; KindBG then means class 1).
	KindBG2
)

func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindFG:
		return "fg-serving"
	case KindBG:
		return "bg-serving"
	case KindIdle:
		return "idle-wait"
	case KindBG2:
		return "bg2-serving"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "empty":
		return KindEmpty, nil
	case "fg-serving":
		return KindFG, nil
	case "bg-serving":
		return KindBG, nil
	case "idle-wait":
		return KindIdle, nil
	case "bg2-serving":
		return KindBG2, nil
	default:
		return 0, NewValidationError(ErrConfig, "Kind", "unknown state kind %q (want empty, fg-serving, bg-serving, idle-wait, or bg2-serving)", s)
	}
}

// block identifies one group of MAP phases within a level: the paper's
// (x,y) / (x',y) / idle-wait states. The FG count y is the level.
//
// In a two-class model a class-2 service can start only when no class-1
// job is buffered, and no class-1 job can appear while it runs (BG jobs are
// born only at FG completions), so KindBG2 blocks always carry x = 0.
type block struct {
	kind Kind
	x    int // class-1 BG jobs in system (waiting or in service)
	x2   int // class-2 BG jobs in system (always 0 in single-class models)
}

// Model is a validated, solvable instance of the FG/BG chain. Each chain
// state carries a composite phase (arrival phase, service stage); with the
// default exponential service the service dimension is 1 and the chain is
// exactly the paper's.
type Model struct {
	cfg Config

	aPhases int          // arrival (MAP) order A
	sPhases int          // service order S (PH phases or service-MAP phases)
	wPhases int          // idle-wait (PH) order W
	svc     *phtype.Dist // nil when ServiceMAP drives the service process
	svcMAP  *arrival.MAP // nil unless ServiceMAP is set
	idle    *phtype.Dist // nil when the buffer never idles (BGBuffer = 0)
	mu      float64      // mean service rate 1/E[S]

	// Composite transition blocks of dimension A·S·W, built once with
	// Kronecker products (the paper's footnote 3 construction). The service
	// stage is parked at 0 in non-serving states, the idle stage at 0 in
	// non-idle-wait states.
	// Every transition out of a non-idle block collapses the idle stage to
	// 0 (1e₀ on the W factor): the stage is meaningless there, and keeping
	// it would clone the repeating chain into W disconnected copies.
	fServe         *mat.Matrix // F ⊗ I_S ⊗ 1e₀: arrival while a job is in service
	fStart         *mat.Matrix // F ⊗ 1β ⊗ 1e₀: arrival that begins a service (empty or idle-wait origin)
	lServe         *mat.Matrix // L ⊗ I_S ⊗ 1e₀: arrival-phase moves outside idle waits
	lIdle          *mat.Matrix // L ⊗ I_S ⊗ I_W: arrival-phase moves during an idle wait
	tOff           *mat.Matrix // I_A ⊗ offdiag(T) ⊗ 1e₀: service-stage moves
	complServe     *mat.Matrix // I_A ⊗ tβ ⊗ 1e₀: completion, next service starts
	complStopEmpty *mat.Matrix // I_A ⊗ t e₀ ⊗ 1e₀: completion emptying the system
	complStopIdle  *mat.Matrix // I_A ⊗ t e₀ ⊗ 1κ: completion arming the idle timer
	vOff           *mat.Matrix // I_A ⊗ I_S ⊗ offdiag(V): idle-stage moves
	idleGo         *mat.Matrix // I_A ⊗ 1β ⊗ v e₀: idle expiry starts BG service

	// Capacity modulation (ModFactor φ < 1): while BG work is in the system
	// the server runs at φ·µ, so every service-derived kernel out of a
	// modulated block (x ≥ 1) is the baseline kernel scaled by φ. When
	// φ = 1 the modulated fields alias the baseline ones, which keeps the
	// degenerate model bit-identical to the baseline chain.
	tOffMod *mat.Matrix // φ · tOff

	// Deadline reneging (AdmitDeadline): each waiting BG job abandons at
	// rate δ, a down transition that preserves the arrival and service
	// phases. renegeServe[w] = w·δ·(I_A ⊗ I_S ⊗ collapse) serves blocks
	// whose idle stage is parked (FG/BG service, and the x = 1 idle-wait
	// exit to Empty); renegeIdle[w] = w·δ·(I_A ⊗ I_S ⊗ I_W) preserves a
	// running idle-wait stage. Both are nil unless the policy is active.
	renegeServe []*mat.Matrix
	renegeIdle  []*mat.Matrix

	rateVec []float64 // per-composite-state arrival rates (D1 row sums)
	exitVec []float64 // per-composite-state service completion rates

	// complCache holds the precomputed completion-rate matrices
	// [target][prob] for prob ∈ {1, p, p2, 1−p−p2}; see completionRate.
	// complCacheMod is the φ-scaled variant used out of modulated blocks
	// (aliasing complCache when φ = 1).
	complCache    [3][4]*mat.Matrix
	complCacheMod [3][4]*mat.Matrix

	// zeroLayout is the block layout of level 0 and repLayout that of every
	// level above it. Chain assembly resolves block indices per transition,
	// so levelBlocks must not allocate per call; the slices are shared and
	// callers must not modify them.
	zeroLayout, repLayout []block

	// xEff and x2Eff are the class buffer sizes used for state-space
	// construction: they equal cfg.BGBuffer and cfg.BG2Buffer except when
	// the matching probability is 0, where that class's states are
	// unreachable and are pruned to keep the phase process irreducible.
	xEff, x2Eff int
}

// NewModel validates cfg and prepares the chain builder.
func NewModel(cfg Config) (*Model, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	svc := cfg.Service
	if svc == nil && cfg.ServiceMAP == nil {
		svc, err = phtype.Exponential(cfg.ServiceRate)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	} else if svc != nil {
		if err := checkPHReachable(svc, "Service"); err != nil {
			return nil, err
		}
	}
	idle := cfg.IdleWait
	if idle == nil && cfg.IdleRate > 0 {
		idle, err = phtype.Exponential(cfg.IdleRate)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if idle != nil {
		if err := checkPHReachable(idle, "IdleWait"); err != nil {
			return nil, err
		}
	}

	d0 := cfg.Arrival.D0()
	a := d0.Rows()
	lArr := mat.New(a, a)
	for i := 0; i < a; i++ {
		for j := 0; j < a; j++ {
			if i != j {
				lArr.Set(i, j, d0.At(i, j))
			}
		}
	}
	f := cfg.Arrival.D1()
	// Service kernels on the S dimension, covering both service laws:
	//   stage moves  — within-service phase transitions (no completion)
	//   complServe/S — completion when another service starts immediately
	//   complStop/S  — completion into a non-serving state
	//   start/S      — how a fresh service sets the stage
	// PH(β, T): completions exit via t = −T·1 and restart in β; the stage is
	// parked at 0 while not serving. MAP (S0, S1): completions follow S1 and
	// the stage is FROZEN (preserved) while not serving.
	var (
		sN                                     int
		tOffS, complServeS, complStopS, startS *mat.Matrix
		exit                                   []float64
		svcRate                                float64
	)
	if cfg.ServiceMAP != nil {
		sMAP := cfg.ServiceMAP
		sN = sMAP.Order()
		s0 := sMAP.D0()
		s1 := sMAP.D1()
		tOffS = mat.New(sN, sN)
		for i := 0; i < sN; i++ {
			for j := 0; j < sN; j++ {
				if i != j {
					tOffS.Set(i, j, s0.At(i, j))
				}
			}
		}
		complServeS = s1
		complStopS = s1
		startS = mat.Identity(sN)
		exit = s1.RowSums()
		svcRate = sMAP.Rate()
	} else {
		sN = svc.Order()
		tm := svc.T()
		tOffS = mat.New(sN, sN)
		for i := 0; i < sN; i++ {
			for j := 0; j < sN; j++ {
				if i != j {
					tOffS.Set(i, j, tm.At(i, j))
				}
			}
		}
		beta := svc.Beta()
		exit = svc.ExitRates()
		complServeS = mat.New(sN, sN)
		complStopS = mat.New(sN, sN)
		startS = mat.New(sN, sN)
		for i := 0; i < sN; i++ {
			for j := 0; j < sN; j++ {
				startS.Set(i, j, beta[j])
				complServeS.Set(i, j, exit[i]*beta[j])
			}
			complStopS.Set(i, 0, exit[i])
		}
		svcRate = svc.Rate()
	}
	wN := 1
	if idle != nil {
		wN = idle.Order()
	}
	var (
		iS = mat.Identity(sN)
		iA = mat.Identity(a)
		iW = mat.Identity(wN)
		// Idle-wait building blocks on the W dimension.
		oneKappa = mat.New(wN, wN) // reset the idle stage to κ
		collapse = mat.New(wN, wN) // abandon the idle timer (park at 0)
		vStop    = mat.New(wN, wN) // expire from stage w at rate v_w, park at 0
		vOffW    = mat.New(wN, wN) // idle-stage moves
	)
	for i := 0; i < wN; i++ {
		collapse.Set(i, 0, 1)
	}
	if idle != nil {
		kappa := idle.Beta()
		vExit := idle.ExitRates()
		vT := idle.T()
		for i := 0; i < wN; i++ {
			for j := 0; j < wN; j++ {
				oneKappa.Set(i, j, kappa[j])
				if i != j {
					vOffW.Set(i, j, vT.At(i, j))
				}
			}
			vStop.Set(i, 0, vExit[i])
		}
	}

	xEff, x2Eff := cfg.BGBuffer, cfg.BG2Buffer
	if cfg.BGProb == 0 {
		xEff = 0
	}
	if cfg.BG2Prob == 0 {
		x2Eff = 0
	}
	m := &Model{
		cfg:            cfg,
		aPhases:        a,
		sPhases:        sN,
		wPhases:        wN,
		svc:            svc,
		svcMAP:         cfg.ServiceMAP,
		idle:           idle,
		mu:             svcRate,
		fServe:         f.Kron(iS).Kron(collapse),
		fStart:         f.Kron(startS).Kron(collapse),
		lServe:         lArr.Kron(iS).Kron(collapse),
		lIdle:          lArr.Kron(iS).Kron(iW),
		tOff:           iA.Kron(tOffS).Kron(collapse),
		complServe:     iA.Kron(complServeS).Kron(collapse),
		complStopEmpty: iA.Kron(complStopS).Kron(collapse),
		complStopIdle:  iA.Kron(complStopS).Kron(oneKappa),
		xEff:           xEff,
		x2Eff:          x2Eff,
	}
	if idle != nil {
		m.vOff = iA.Kron(iS).Kron(vOffW)
		m.idleGo = iA.Kron(startS).Kron(vStop)
	}
	if phi := cfg.ModFactor; phi != 1 {
		m.tOffMod = m.tOff.Clone().Scale(phi)
	} else {
		m.tOffMod = m.tOff
	}
	if cfg.BGAdmit == AdmitDeadline && xEff > 0 {
		paused := iA.Kron(iS).Kron(collapse)
		pausedIdle := iA.Kron(iS).Kron(iW)
		m.renegeServe = make([]*mat.Matrix, xEff+1)
		m.renegeIdle = make([]*mat.Matrix, xEff+1)
		for w := 1; w <= xEff; w++ {
			rate := float64(w) * cfg.DeadlineRate
			m.renegeServe[w] = scaled(paused, rate)
			m.renegeIdle[w] = scaled(pausedIdle, rate)
		}
	}
	m.buildComplCache()
	m.zeroLayout = buildLevelBlocks(0, xEff, x2Eff)
	m.repLayout = buildLevelBlocks(1, xEff, x2Eff)
	dim := a * sN * wN
	m.rateVec = make([]float64, dim)
	m.exitVec = make([]float64, dim)
	arrRates := f.RowSums()
	for ai := 0; ai < a; ai++ {
		for si := 0; si < sN; si++ {
			for wi := 0; wi < wN; wi++ {
				idx := (ai*sN+si)*wN + wi
				m.rateVec[idx] = arrRates[ai]
				m.exitVec[idx] = exit[si]
			}
		}
	}
	return m, nil
}

// checkPHReachable verifies every service phase is reachable from the
// support of β through T, which the chain construction requires for an
// irreducible phase process.
func checkPHReachable(d *phtype.Dist, field string) error {
	s := d.Order()
	t := d.T()
	reached := make([]bool, s)
	var stack []int
	for i, b := range d.Beta() {
		if b > 0 {
			reached[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < s; j++ {
			if j != i && !reached[j] && t.At(i, j) > 0 {
				reached[j] = true
				stack = append(stack, j)
			}
		}
	}
	for i, ok := range reached {
		if !ok {
			return NewValidationError(ErrConfig, field, "phase %d unreachable from β (trim the representation)", i)
		}
	}
	return nil
}

// Config returns the model configuration (with defaults applied).
func (m *Model) Config() Config { return m.cfg }

// Phases returns the composite phase count per block: the MAP order times
// the service-PH order times the idle-wait-PH order (the PH orders are 1
// for the default exponential laws).
func (m *Model) Phases() int { return m.aPhases * m.sPhases * m.wPhases }

// ServiceRate returns the effective mean service rate µ.
func (m *Model) ServiceRate() float64 { return m.mu }

// FGUtilization returns the offered foreground load ρ = λ/µ.
func (m *Model) FGUtilization() float64 {
	return m.cfg.Arrival.Rate() / m.mu
}

// levelBlocks returns the block layout of level y. Both layouts list the
// blocks grouped by their BG counts (x, x2) in lexicographic order, and each
// group lists its FG-serving block (idle-wait at level 0, or empty when
// x = x2 = 0) before its BG-serving one, so a single-class level reads
// (0,y), (1,y), (1',y), … as in the paper. The slice is shared — callers
// must treat it as read-only.
func (m *Model) levelBlocks(y int) []block {
	if y == 0 {
		return m.zeroLayout
	}
	return m.repLayout
}

// buildLevelBlocks constructs the block layout of level y for class
// buffers of sizes x and x2; levelBlocks serves cached copies of these.
func buildLevelBlocks(y, x, x2 int) []block {
	blocks := make([]block, 0, 2*(x+1)*(x2+1))
	for i := 0; i <= x; i++ {
		for k := 0; k <= x2; k++ {
			switch {
			case y >= 1:
				blocks = append(blocks, block{kind: KindFG, x: i, x2: k})
			case i+k >= 1:
				blocks = append(blocks, block{kind: KindIdle, x: i, x2: k})
			default:
				blocks = append(blocks, block{kind: KindEmpty})
			}
			switch {
			case i >= 1:
				blocks = append(blocks, block{kind: KindBG, x: i, x2: k})
			case k >= 1:
				blocks = append(blocks, block{kind: KindBG2, x2: k})
			}
		}
	}
	return blocks
}

// blockIndex returns the position of a block within its level, or −1.
func (m *Model) blockIndex(level int, b block) int {
	for i, cand := range m.levelBlocks(level) {
		if cand == b {
			return i
		}
	}
	return -1
}

// levelStates returns the number of chain states in a level; both layouts
// have the same count.
func (m *Model) levelStates() int {
	return len(m.repLayout) * m.Phases()
}
