// Package plan implements the inverse solver of the capacity-planning
// subsystem: instead of the paper's forward question (given background
// probability p, buffer X, and idle rate α, what happens to foreground
// performance), it answers the operator's question — how much background
// work can the system admit before a foreground SLO breaks.
//
// The search exploits the monotonicity the conformance oracles prove
// (internal/check: QLenFG non-decreasing in p and X, FG interference
// non-decreasing in the idle rate α, and non-increasing in the modulation
// factor φ): the feasible set of each decision variable is an interval
// anchored at its least-aggressive ("safe") endpoint, so one search loop
// over the fast analytic engine finds the frontier in a dozen or so solves.
// The loop keeps the safe side of its bracket feasible and the bold side
// infeasible. p, X, and α move upward from their safe endpoint; φ moves
// downward from 1 toward ModFactorFloor, since its aggressive direction is
// toward deeper degradation. X still bisects on whole slots. p, φ, and α
// (on ln α, since its domain spans six orders of magnitude) take an ITP
// step: it interpolates the SLO slack, which is smooth and monotone in
// them, then truncates and projects the step so that no search takes more
// iterations than bisection. The interpolant is inverse quadratic, not
// regula falsi, because the slack is strongly concave: QLenFG(p) on
// softdev at 30% load rises 79% of its whole range by p = 0.1, where the
// roots lie, and regula falsi saves no solves there. The stop rule is one
// slot for X, relative for α, and absolute for p and φ. Every reported
// frontier is an actually-solved feasible point — the search never
// extrapolates — and the infeasible side of the final bracket is reported,
// so a forward solve can independently confirm both sides of the frontier.
//
// An SLO that fails even at the safe endpoint (p = 0, X = 0, a vanishing α,
// or φ = 1) is reported with ErrInfeasible, never silently clamped. A
// saturated foreground load (qbd.ErrUnstable) is likewise infeasible for p,
// X, and α, whose values cannot affect stability, and for φ = 1, where no
// modulation is left to blame; below φ = 1 — where a deep modulation CAN
// saturate an otherwise stable model — a saturated candidate is just an
// infeasible point.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"bgperf/internal/core"
	"bgperf/internal/obs"
	"bgperf/internal/par"
	"bgperf/internal/qbd"
)

// ErrInfeasible reports an SLO that no value of the decision variable can
// meet: the constraint is violated even at the least-aggressive endpoint of
// the search domain (or the foreground load alone saturates the server).
// Match it with errors.Is through any wrapping.
var ErrInfeasible = errors.New("plan: SLO infeasible")

// Search defaults and domain bounds.
const (
	// DefaultTol is the default relative convergence tolerance of the
	// continuous searches (absolute on p ∈ [0,1], multiplicative on α).
	DefaultTol = 1e-4
	// MaxSteps bounds the iterations of every accepted search: CheckTol
	// rejects a tolerance at which BisectionSteps would exceed it (about
	// 7.5e-19 for α, whose span is the widest). At DefaultTol no search
	// needs more than 18.
	MaxSteps = 64
	// MaxBuffer caps the integer buffer search: X* = MaxBuffer with AtCap
	// set means the SLO tolerates any buffer the model will realistically
	// run with.
	MaxBuffer = 64
	// alphaLoFrac and alphaHiFrac bound the idle-rate search domain as
	// multiples of the service rate µ: from an idle wait of 10^3 service
	// times (background effectively disabled) down to 1/1024 of one
	// (background admitted almost immediately). Wider windows hit the
	// numerical limits of the boundary solve (extreme time-scale separation
	// between idle expiry and service) without changing any answer.
	alphaLoFrac = 1e-3
	alphaHiFrac = 1024
	// ModFactorFloor bounds the modulation-factor search from below: a
	// server degraded to 5% of its capacity while background work is present
	// is already far beyond any regime the paper's scenarios consider, and
	// smaller factors mostly produce saturated (unstable) models anyway.
	ModFactorFloor = 0.05
)

// Var selects the decision variable of the inverse search.
type Var int

// Decision variables.
const (
	// VarBGProb searches the background spawn probability p over [0, 1].
	VarBGProb Var = iota + 1
	// VarBGBuffer searches the integer buffer capacity X over [0, MaxBuffer].
	VarBGBuffer
	// VarIdleRate searches the idle-wait rate α (higher α, shorter idle
	// wait, more aggressive background admission) over a multiplicative
	// window around the service rate.
	VarIdleRate
	// VarModFactor searches the capacity-modulation factor φ over
	// [ModFactorFloor, 1]. Unlike the other variables its aggressive
	// direction points down — smaller φ degrades the foreground harder — so
	// the search finds the MINIMUM feasible φ: the deepest modulation the
	// SLO tolerates. Value is that minimum, Bracket the largest evaluated
	// infeasible φ below it, and AtCap means even ModFactorFloor is
	// feasible.
	VarModFactor
)

// String returns the CLI/JSON spelling: "p", "x", "alpha", or "mod".
func (v Var) String() string {
	switch v {
	case VarBGProb:
		return "p"
	case VarBGBuffer:
		return "x"
	case VarIdleRate:
		return "alpha"
	case VarModFactor:
		return "mod"
	default:
		return fmt.Sprintf("Var(%d)", int(v))
	}
}

// ParseVar maps "p" / "x" / "alpha" / "mod" back to the variable constants
// (the inverse of Var.String). The empty string means the default, VarBGProb.
func ParseVar(s string) (Var, error) {
	switch strings.ToLower(s) {
	case "", "p":
		return VarBGProb, nil
	case "x", "buffer":
		return VarBGBuffer, nil
	case "alpha", "a", "idlerate":
		return VarIdleRate, nil
	case "mod", "phi", "modfactor":
		return VarModFactor, nil
	default:
		return 0, core.NewValidationError(core.ErrConfig, "var",
			"unknown decision variable %q (want p | x | alpha | mod)", s)
	}
}

// SLO bounds the foreground metrics a capacity plan must preserve. A zero
// field is unconstrained; at least one bound must be set. All bounds are
// upper bounds on the solved steady-state metric.
type SLO struct {
	// QLenFG bounds the mean foreground queue length (the paper's headline
	// degradation metric); 0 means unconstrained.
	QLenFG float64 `json:"qlenFG,omitempty"`
	// WaitPFG bounds the fraction of foreground jobs delayed by background
	// work, in (0, 1]; 0 means unconstrained.
	WaitPFG float64 `json:"waitPFG,omitempty"`
	// RespTimeFG bounds the mean foreground response time (model time
	// units; milliseconds for the catalog workloads); 0 means unconstrained.
	RespTimeFG float64 `json:"respTimeFG,omitempty"`
}

// Validate checks the SLO: at least one bound set, every set bound positive
// and finite, WaitPFG at most 1 (it bounds a probability). Errors are
// *core.ValidationError naming the offending field.
func (s SLO) Validate() error {
	check := func(field string, v float64) error {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return core.NewValidationError(core.ErrConfig, field,
				"SLO bound %g must be positive and finite", v)
		}
		return nil
	}
	if err := check("QLenFG", s.QLenFG); err != nil {
		return err
	}
	if err := check("WaitPFG", s.WaitPFG); err != nil {
		return err
	}
	if err := check("RespTimeFG", s.RespTimeFG); err != nil {
		return err
	}
	if s.WaitPFG > 1 {
		return core.NewValidationError(core.ErrConfig, "WaitPFG",
			"WaitPFG bounds a probability, %g must be at most 1", s.WaitPFG)
	}
	if s.QLenFG == 0 && s.WaitPFG == 0 && s.RespTimeFG == 0 {
		return core.NewValidationError(core.ErrConfig, "SLO",
			"at least one of QLenFG, WaitPFG, RespTimeFG must be set")
	}
	return nil
}

// Holds reports whether the solved metrics meet every set bound.
func (s SLO) Holds(m core.Metrics) bool {
	if s.QLenFG > 0 && !(m.QLenFG <= s.QLenFG) {
		return false
	}
	if s.WaitPFG > 0 && !(m.WaitPFG <= s.WaitPFG) {
		return false
	}
	if s.RespTimeFG > 0 && !(m.RespTimeFG <= s.RespTimeFG) {
		return false
	}
	return true
}

// violation names the first violated bound for error messages.
func (s SLO) violation(m core.Metrics) string {
	switch {
	case s.QLenFG > 0 && !(m.QLenFG <= s.QLenFG):
		return fmt.Sprintf("QLenFG %.6g exceeds bound %.6g", m.QLenFG, s.QLenFG)
	case s.WaitPFG > 0 && !(m.WaitPFG <= s.WaitPFG):
		return fmt.Sprintf("WaitPFG %.6g exceeds bound %.6g", m.WaitPFG, s.WaitPFG)
	case s.RespTimeFG > 0 && !(m.RespTimeFG <= s.RespTimeFG):
		return fmt.Sprintf("RespTimeFG %.6g exceeds bound %.6g", m.RespTimeFG, s.RespTimeFG)
	default:
		return "no bound violated"
	}
}

// slack is the largest relative excess max(mᵢ/bᵢ − 1) over the set bounds:
// at most 0 where the SLO holds, positive past its tightest bound.
func (s SLO) slack(m core.Metrics) float64 {
	g := math.Inf(-1)
	for _, mb := range [...][2]float64{{m.QLenFG, s.QLenFG}, {m.WaitPFG, s.WaitPFG}, {m.RespTimeFG, s.RespTimeFG}} {
		if mb[1] > 0 {
			g = max(g, mb[0]/mb[1]-1)
		}
	}
	return g
}

// Options parameterizes one inverse search. The zero value searches p with
// the default tolerance, serially and unobserved.
type Options struct {
	// Var is the decision variable (default VarBGProb).
	Var Var
	// Tol is the convergence tolerance of the continuous searches; 0 means
	// DefaultTol. The p search stops when the feasible/infeasible bracket is
	// narrower than Tol; the α search when the bracket ratio is below 1+Tol.
	// A search never takes more than BisectionSteps(Var, Tol) iterations,
	// and CheckTol keeps that within MaxSteps.
	Tol float64
	// Workers bounds the goroutines of the sensitivity-neighborhood
	// fan-out; <= 0 means all cores. Every solve runs serially.
	Workers int
	// Observer optionally receives the diagnostics of every forward solve
	// the search performs.
	Observer obs.Observer
	// Ctx cancels the search between solves; nil means never.
	Ctx context.Context
}

// withDefaults resolves the zero values. It is the single defaulting point:
// the facade, the CLI, and the daemon all pass zero-valued knobs through
// here, so the same request always searches identically and cache-keys
// identically.
func (o Options) withDefaults() Options {
	if o.Var == 0 {
		o.Var = VarBGProb
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	return o
}

// CheckTol validates the tolerance tol of a search over v, naming field in
// the *core.ValidationError it returns: tol must be positive and finite,
// and coarse enough that bisection's count BisectionSteps(v, tol) stays
// within MaxSteps, the bound on every search's iterations. X's tolerance is
// one slot whatever tol says, so only p, α, and φ can fail the second test.
func CheckTol(v Var, tol float64, field string) error {
	if !(tol > 0) || math.IsInf(tol, 0) {
		return core.NewValidationError(core.ErrConfig, field,
			"tolerance %g must be positive and finite", tol)
	}
	if n := BisectionSteps(v, tol); n > MaxSteps {
		return core.NewValidationError(core.ErrConfig, field,
			"tolerance %g needs %d search steps for %s, more than %d", tol, n, v, MaxSteps)
	}
	return nil
}

// Neighbor is one point of the sensitivity neighborhood around the frontier:
// the decision-variable value, whether the SLO holds there, and the full
// solved metrics.
type Neighbor struct {
	// Value is the decision-variable value of this point.
	Value float64 `json:"value"`
	// Holds reports whether the SLO is met at this point.
	Holds bool `json:"holds"`
	// Metrics are the solved steady-state metrics at this point.
	Metrics core.Metrics `json:"metrics"`
}

// Result is a capacity plan: the frontier value of the decision variable,
// the solved metrics there, and a small sensitivity neighborhood. The JSON
// encoding is the byte-for-byte contract shared by `bgperf plan -json` and
// the daemon's /v1/optimize "plan" object.
type Result struct {
	// Var is the decision variable searched ("p", "x", "alpha", or "mod").
	Var string `json:"var"`
	// Value is the maximum feasible value found: the SLO holds at the
	// forward solve of this exact point.
	Value float64 `json:"value"`
	// AtCap reports that the SLO holds at the most aggressive end of the
	// domain (p = 1 − BG2Prob, X = MaxBuffer, the top of the α window, or —
	// for the downward-searching "mod" variable — ModFactorFloor), so Value
	// is that cap rather than a constraint frontier and Bracket is 0.
	AtCap bool `json:"atCap"`
	// Bracket is the infeasible side of the final search bracket (0 when
	// AtCap): the smallest evaluated value at which the SLO failed, or for
	// the "mod" variable the largest evaluated infeasible φ below Value. A
	// forward solve at Bracket independently confirms the frontier.
	Bracket float64 `json:"bracket"`
	// Iterations counts search steps, one forward solve each: ITP steps
	// for p, φ, and α, bisection steps for X. It never exceeds
	// BisectionSteps, and so never MaxSteps.
	Iterations int `json:"iterations"`
	// Solves counts every forward solve the search performed, endpoints
	// and neighborhood included.
	Solves int `json:"solves"`
	// SLO echoes the constraints the plan satisfies.
	SLO SLO `json:"slo"`
	// Metrics are the solved steady-state metrics at Value.
	Metrics core.Metrics `json:"metrics"`
	// Neighborhood holds the frontier and its perturbed neighbors in
	// ascending Value order, for sensitivity reading ("one buffer slot more
	// breaks the SLO; 5% less p buys this much margin").
	Neighborhood []Neighbor `json:"neighborhood"`
}

// CacheKey returns the canonical identity of a plan request: the config key
// (core.CacheKey) with the searched variable normalized out, extended with a
// KeySectionPlan-tagged encoding of the SLO bounds and search knobs
// (core.CacheKeyExt). Two requests receive the same key exactly when
// Maximize returns bit-identical results for them, so the key is safe for
// memoizing plans; option defaults are resolved first, so explicit and
// implicit defaults key identically.
func CacheKey(cfg core.Config, slo SLO, opts Options) (string, error) {
	opts = opts.withDefaults()
	if err := slo.Validate(); err != nil {
		return "", err
	}
	if err := validateVar(cfg, opts.Var); err != nil {
		return "", err
	}
	if err := CheckTol(opts.Var, opts.Tol, "Tolerance"); err != nil {
		return "", err
	}
	// The searched variable's base value never reaches a solve, so it is
	// canonicalized out of the key: plans differing only in the overridden
	// field share an entry.
	norm := cfg
	switch opts.Var {
	case VarBGProb:
		norm.BGProb = 0
	case VarBGBuffer:
		norm.BGBuffer = 0
	case VarIdleRate:
		norm.IdleRate = 1
	case VarModFactor:
		norm.ModFactor = 0
	}
	return core.CacheKeyExt(norm, core.KeySectionPlan,
		[]int64{int64(opts.Var)},
		[]float64{slo.QLenFG, slo.WaitPFG, slo.RespTimeFG, opts.Tol})
}

// validateVar checks variable-specific preconditions on the base config.
func validateVar(cfg core.Config, v Var) error {
	switch v {
	case VarBGProb, VarBGBuffer:
		if v == VarBGBuffer && cfg.IdleRate <= 0 && cfg.IdleWait == nil {
			return core.NewValidationError(core.ErrConfig, "IdleRate",
				"buffer search needs an idle-wait law (IdleRate or IdleWait) so nonzero buffers are solvable")
		}
		return nil
	case VarIdleRate:
		if cfg.IdleWait != nil {
			return core.NewValidationError(core.ErrConfig, "IdleWait",
				"idle-rate search requires an exponential idle wait (IdleRate), not a phase-type IdleWait")
		}
		return nil
	case VarModFactor:
		return nil
	default:
		return core.NewValidationError(core.ErrConfig, "Var",
			"unknown decision variable %d", int(v))
	}
}

// searcher carries one search's state: the base config, constraints, and
// resolved options, plus the running solve count.
type searcher struct {
	cfg    core.Config
	slo    SLO
	opts   Options
	solves int
}

// Maximize finds the most aggressive value of the decision variable
// opts.Var at which cfg still meets slo, by a bracketing search over forward
// analytic solves (downward for mod, whose aggressive direction is toward
// smaller φ).
// It returns ErrInfeasible (wrapped, with the violated bound named) when even
// the least-aggressive endpoint fails, and a *core.ValidationError for invalid
// SLOs, configs, or variable/config combinations. The result's Value is always
// a point that was actually solved and found feasible.
func Maximize(cfg core.Config, slo SLO, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := slo.Validate(); err != nil {
		return nil, err
	}
	if err := validateVar(cfg, opts.Var); err != nil {
		return nil, err
	}
	if err := CheckTol(opts.Var, opts.Tol, "Tolerance"); err != nil {
		return nil, err
	}
	// Validate the base config once, before any solve: the searched field is
	// overridden per candidate, but every other field must already be sound.
	if _, err := core.CacheKey(cfg); err != nil {
		return nil, err
	}
	s := &searcher{cfg: cfg, slo: slo, opts: opts}
	res, err := s.search()
	if err != nil {
		return nil, err
	}
	if err := s.neighborhood(res); err != nil {
		return nil, err
	}
	res.Var = opts.Var.String()
	res.SLO = slo
	res.Solves = s.solves
	return res, nil
}

// domain returns the search endpoints of the decision variable: safe, the
// least-aggressive value, where the SLO must hold or the plan is infeasible,
// and bold, the most-aggressive one, where a holding SLO makes the plan
// AtCap. p, X, and α search upward; φ searches downward from 1, since its
// aggressive direction is toward deeper degradation.
func (s *searcher) domain() (safe, bold float64) {
	switch s.opts.Var {
	case VarBGProb:
		// A second class's spawn probability leaves 1 − BG2Prob to p.
		return 0, 1 - s.cfg.BG2Prob
	case VarBGBuffer:
		return 0, MaxBuffer
	case VarModFactor:
		return 1, ModFactorFloor
	default:
		mu := serviceRateOf(s.cfg)
		return alphaLoFrac * mu, alphaHiFrac * mu
	}
}

// serviceRateOf extracts the (mean) service rate µ, the natural scale of
// the idle-rate domain.
func serviceRateOf(cfg core.Config) float64 {
	switch {
	case cfg.Service != nil:
		return 1 / cfg.Service.Mean()
	case cfg.ServiceMAP != nil:
		return cfg.ServiceMAP.Rate()
	default:
		return cfg.ServiceRate
	}
}

// eval forward-solves the base config with the decision variable set to val
// and reports whether the SLO holds there, counting the solve.
func (s *searcher) eval(val float64) (core.Metrics, bool, error) {
	s.solves++
	return evalAt(s.cfg, s.slo, s.opts, val)
}

// evalAt is the goroutine-safe core of eval: it owns no searcher state, so
// the neighborhood fan-out can call it concurrently. A saturated model maps
// to ErrInfeasible directly, since stability does not depend on p, X, or α
// and no value can rescue it; only φ < 1 can saturate the model itself.
func evalAt(cfg core.Config, slo SLO, opts Options, val float64) (core.Metrics, bool, error) {
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return core.Metrics{}, false, fmt.Errorf("plan: canceled: %w", err)
		}
	}
	switch opts.Var {
	case VarBGProb:
		cfg.BGProb = val
	case VarBGBuffer:
		cfg.BGBuffer = int(math.Round(val))
	case VarIdleRate:
		cfg.IdleRate = val
	case VarModFactor:
		cfg.ModFactor = val
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		return core.Metrics{}, false, err
	}
	sol, err := model.SolveObserved(opts.Observer)
	if err != nil {
		if errors.Is(err, qbd.ErrUnstable) {
			if opts.Var == VarModFactor && val < 1 {
				// Stability DOES depend on φ: a deep modulation can saturate
				// a model that is comfortably stable at φ = 1. A saturated
				// candidate is simply an infeasible point of the search, not
				// a verdict on the whole domain.
				return core.Metrics{}, false, nil
			}
			return core.Metrics{}, false, fmt.Errorf(
				"%w: foreground load alone saturates the server: %v", ErrInfeasible, err)
		}
		return core.Metrics{}, false, err
	}
	return sol.Metrics, slo.Holds(sol.Metrics), nil
}

// point is one evaluated end of the search bracket: the decision-variable
// value, its search coordinate u, and the SLO slack g there.
type point struct {
	v, u, g float64
}

// at builds the point for value v whose forward solve gave m and the
// feasibility verdict ok. A slack whose sign contradicts the verdict carries
// no information and is NaN: a saturating φ candidate's zero metrics, or a
// violating metric whose ratio to its bound rounds to exactly 1.
func (s *searcher) at(v float64, m core.Metrics, ok bool) point {
	g := s.slo.slack(m)
	if !ok && !(g > 0) {
		g = math.NaN()
	}
	return point{v: v, u: s.coord(v), g: g}
}

// search narrows the decision variable's bracket between its endpoints,
// keeping one invariant: the safe side of the bracket is feasible and the
// bold side is infeasible. It evaluates safe (ErrInfeasible if the SLO fails
// there), then bold (AtCap if the SLO holds there), then steps inside the
// bracket until it converges, the bisection count n½ runs out, or no
// candidate separates the two sides at float resolution.
// Capping the loop at n½ steps keeps a bracket that the step's projection
// left a few ulps above the tolerance from costing one more solve.
func (s *searcher) search() (*Result, error) {
	safeV, boldV := s.domain()
	mSafe, ok, err := s.eval(safeV)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s even %s", ErrInfeasible, s.slo.violation(mSafe), s.safeText(safeV))
	}
	mBold, ok, err := s.eval(boldV)
	if err != nil {
		return nil, err
	}
	if ok {
		return &Result{Value: boldV, AtCap: true, Metrics: mBold}, nil
	}
	safe, bold := s.at(safeV, mSafe, true), s.at(boldV, mBold, false)
	prev := point{g: math.NaN()} // the last discarded endpoint, none yet
	steps := BisectionSteps(s.opts.Var, s.opts.Tol)
	iters := 0
	for iters < steps && !s.converged(safe.v, bold.v) {
		next := s.next(safe, bold, prev, steps-iters)
		if !inside(next, safe.v, bold.v) {
			if next = s.midpoint(safe.v, bold.v); !inside(next, safe.v, bold.v) {
				break // bracket exhausted at float resolution
			}
		}
		m, ok, err := s.eval(next)
		if err != nil {
			return nil, err
		}
		if ok {
			prev, safe, mSafe = safe, s.at(next, m, true), m
		} else {
			prev, bold = bold, s.at(next, m, false)
		}
		iters++
	}
	return &Result{Value: safe.v, Bracket: bold.v, Iterations: iters, Metrics: mSafe}, nil
}

// inside reports whether x lies strictly between the bracket ends a and b.
func inside(x, a, b float64) bool {
	return x > min(a, b) && x < max(a, b)
}

// safeText names the safe endpoint in the ErrInfeasible message.
func (s *searcher) safeText(safe float64) string {
	switch s.opts.Var {
	case VarBGBuffer:
		return "at X = 0 (no background admitted)"
	case VarModFactor:
		return "with modulation disabled (mod = 1)"
	default:
		return fmt.Sprintf("at %s = %g", s.opts.Var, safe)
	}
}

// converged reports whether the bracket is within tolerance: one buffer slot
// for X, a ratio of 1+Tol for α, and an absolute Tol for p and φ.
func (s *searcher) converged(safe, bold float64) bool {
	switch s.opts.Var {
	case VarBGBuffer:
		return bold-safe <= 1
	case VarIdleRate:
		return bold <= safe*(1+s.opts.Tol)
	default:
		return math.Abs(bold-safe) <= s.opts.Tol
	}
}

// coord maps a value onto the search coordinate u: ln α for the idle rate,
// whose domain spans about six orders of magnitude, and the value itself
// for p, X, and φ. value is its inverse.
func (s *searcher) coord(v float64) float64 {
	if s.opts.Var == VarIdleRate {
		return math.Log(v)
	}
	return v
}

func (s *searcher) value(u float64) float64 {
	if s.opts.Var == VarIdleRate {
		return math.Exp(u)
	}
	return u
}

// span is the width of v's whole search domain in the search coordinate.
func span(v Var) float64 {
	switch v {
	case VarBGBuffer:
		return MaxBuffer
	case VarIdleRate:
		return math.Log(alphaHiFrac / alphaLoFrac)
	case VarModFactor:
		return 1 - ModFactorFloor
	default:
		return 1
	}
}

// tolU is the stop rule's bracket width in the search coordinate: one slot
// for X, ln(1+tol) for α, and tol for p and φ.
func tolU(v Var, tol float64) float64 {
	switch v {
	case VarBGBuffer:
		return 1
	case VarIdleRate:
		return math.Log1p(tol)
	default:
		return tol
	}
}

// BisectionSteps returns n½ = ⌈log₂(w₀/tol)⌉, the iterations bisection
// needs to narrow v's whole domain (width w₀ in the search coordinate) to
// the stop rule's width at tolerance tol, 0 meaning DefaultTol: 14 for p
// and φ and 18 for α at DefaultTol, and 6 for X, whose tolerance is one
// slot. No search of v takes more iterations.
func BisectionSteps(v Var, tol float64) int {
	if tol == 0 {
		tol = DefaultTol
	}
	n := math.Ceil(math.Log2(span(v) / tolU(v, tol)))
	switch {
	case n <= 0:
		return 0
	case n < math.MaxInt32:
		return int(n)
	default:
		return math.MaxInt32 // tol is not positive and finite; CheckTol rejects it
	}
}

// midpoint bisects the bracket: on whole buffer slots for X, geometrically
// for α, and arithmetically for p and φ.
func (s *searcher) midpoint(safe, bold float64) float64 {
	switch s.opts.Var {
	case VarBGBuffer:
		return math.Floor((safe + bold) / 2)
	case VarIdleRate:
		return math.Sqrt(safe * bold)
	default:
		return (safe + bold) / 2
	}
}

// next picks the next candidate inside the bracket, with left of
// bisection's n½ steps remaining. X bisects on whole slots. p, φ, and α
// take an ITP step (Oliveira & Takahashi, "An Enhancement of the Bisection
// Method Average Performance Preserving Minmax Optimality", ACM TOMS 2020)
// on the search coordinate: the slack's root is interpolated, the estimate
// is truncated toward the midpoint by δ = w²/w₀ (κ₁ = 1/w₀, κ₂ = 2), and
// projected back within r = tol·2^(left−1) − w/2 of the midpoint, so that
// (n₀ = 0) the step leaves a bracket no wider than bisection's would be. A
// step with a non-finite slack at either end takes the plain midpoint.
func (s *searcher) next(safe, bold, prev point, left int) float64 {
	if s.opts.Var == VarBGBuffer || !isFinite(safe.g) || !isFinite(bold.g) {
		return s.midpoint(safe.v, bold.v)
	}
	w0, w := span(s.opts.Var), math.Abs(bold.u-safe.u)
	mid := (safe.u + bold.u) / 2
	xf := interpolate(safe, bold, prev)
	sigma := 1.0
	if xf > mid {
		sigma = -1
	}
	xt := mid
	if delta := w * w / w0; delta <= math.Abs(mid-xf) {
		xt = xf + sigma*delta
	}
	r := max(math.Ldexp(tolU(s.opts.Var, s.opts.Tol), left-1)-w/2, 0)
	if math.Abs(xt-mid) > r {
		xt = mid - sigma*r
	}
	return s.value(xt)
}

// interpolate estimates the slack's root in the search coordinate: inverse
// quadratic interpolation through the two bracket ends and the last
// discarded endpoint, or regula falsi through the ends when that point is
// missing, its slack not finite, or the quadratic's root not strictly
// inside the bracket. On the strongly concave slack the package comment
// describes, regula falsi alone keeps moving one end by little; the
// quadratic follows the curvature.
func interpolate(a, b, c point) float64 {
	if isFinite(c.g) && c.g != a.g && c.g != b.g {
		x := a.u*b.g*c.g/((a.g-b.g)*(a.g-c.g)) +
			b.u*a.g*c.g/((b.g-a.g)*(b.g-c.g)) +
			c.u*a.g*b.g/((c.g-a.g)*(c.g-b.g))
		if inside(x, a.u, b.u) {
			return x
		}
	}
	return (a.u*b.g - b.u*a.g) / (b.g - a.g)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// neighborhood solves the sensitivity points around the frontier (fanned
// over the worker pool) and attaches them, frontier included, in ascending
// value order.
func (s *searcher) neighborhood(res *Result) error {
	vals := s.neighborValues(res)
	points := make([]Neighbor, len(vals)+1)
	points[0] = Neighbor{Value: res.Value, Holds: true, Metrics: res.Metrics}
	// Each worker solves an independent candidate through the stateless
	// evalAt; the solve count is totaled up-front.
	s.solves += len(vals)
	if err := par.ForCtx(s.opts.Ctx, s.opts.Workers, len(vals), func(i int) error {
		m, ok, err := evalAt(s.cfg, s.slo, s.opts, vals[i])
		if err != nil {
			// Neighbors beyond the frontier are expected to violate the SLO,
			// not to fail; any solve error aborts the plan.
			return err
		}
		points[i+1] = Neighbor{Value: vals[i], Holds: ok, Metrics: m}
		return nil
	}); err != nil {
		return err
	}
	// Deterministic ascending order regardless of fan-out scheduling.
	for i := 1; i < len(points); i++ {
		for j := i; j > 0 && points[j].Value < points[j-1].Value; j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
	res.Neighborhood = points
	return nil
}

// neighborValues picks the perturbed sensitivity points: ±1 buffer slot for
// X, ×/÷1.05 for α, ±5% (at least one tolerance) for p and φ, clamped to the
// domain and deduplicated against the frontier.
func (s *searcher) neighborValues(res *Result) []float64 {
	v := res.Value
	var cands []float64
	switch s.opts.Var {
	case VarBGBuffer:
		cands = []float64{v - 1, v + 1}
	case VarIdleRate:
		cands = []float64{v / 1.05, v * 1.05}
	default:
		step := math.Max(0.05*v, s.opts.Tol)
		cands = []float64{v - step, v + step}
	}
	safe, bold := s.domain()
	lo, hi := min(safe, bold), max(safe, bold)
	out := cands[:0]
	for _, c := range cands {
		c = math.Min(math.Max(c, lo), hi)
		if c != v {
			out = append(out, c)
		}
	}
	return out
}
