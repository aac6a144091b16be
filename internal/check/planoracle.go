package check

import (
	"context"
	"errors"
	"fmt"

	"bgperf/internal/core"
	"bgperf/internal/plan"
	"bgperf/internal/qbd"
)

// planSlack bounds how far below a known-feasible value the planner's
// frontier may land: the continuous searches converge to DefaultTol (p:
// absolute, α: relative), so twice that covers the final bracket, also one
// that the search's last step leaves a few ulps wider than DefaultTol.
const planSlack = 2 * plan.DefaultTol

// planCases caps the plan-inversion sample: each case costs a full search
// (up to about 22 forward solves) plus its re-solves, so the oracle samples
// rather than mirrors -n.
const planCases = 16

// planInversion cross-checks the inverse solver (internal/plan) against the
// forward solver on generated configurations — the round-trip oracle behind
// `bgperf check`. For each case it forward-solves the generated point, sets
// the SLO exactly at that point's QLenFG, and verifies the planner's
// contract:
//
//   - the plan succeeds (the generated value itself is feasible);
//   - the frontier is no lower than the known-feasible generated value
//     (within the convergence tolerance for the continuous variables);
//   - an independent forward solve at the frontier reproduces the reported
//     metrics to solver precision and satisfies the SLO;
//   - the bracket, when present, genuinely violates the SLO on re-solve,
//     and an at-cap result carries no bracket;
//   - the search took no more iterations than bisection would
//     (plan.BisectionSteps: the slot count for X);
//   - an SLO below the variable's reachable minimum (half the queue length
//     with background disabled) returns ErrInfeasible — never a silently
//     clamped frontier.
//
// The decision variable cycles p → X → α → φ across cases, so every search
// mode is exercised each run. At most planCases cases are checked (n
// permitting). The error reports harness-level failures (canceled context, a
// generated config the forward solver rejects), not oracle verdicts.
func (vs *violations) planInversion(ctx context.Context, n int, seed int64) error {
	if n > planCases {
		n = planCases
	}
	gen := NewGenerator(seed)
	vars := []plan.Var{plan.VarBGProb, plan.VarBGBuffer, plan.VarIdleRate, plan.VarModFactor}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := gen.Next()
		v := vars[i%len(vars)]
		vs.caseName = fmt.Sprintf("plan[%s]-%s", v, c.Name)

		// The p/X/α searches rely on the BASELINE comparative statics
		// (QLenFG monotone in each variable's aggressive direction), which
		// capacity modulation deliberately breaks — under φ < 1 a slower
		// idle rate can lengthen the FG queue by keeping BG work, and with
		// it the slowdown, in the system longer. The oracle therefore
		// normalizes the scenario fields out of the generated case and
		// exercises φ through its own dedicated search leg, which needs no
		// such assumption (QLenFG IS monotone in φ with everything else
		// fixed). The generated φ doubles as that leg's known-feasible
		// point.
		phiGen := c.Cfg.ModFactor
		if phiGen == 0 || phiGen == 1 {
			phiGen = 0.8
		}
		c.Cfg.ModFactor, c.Cfg.BGAdmit = 1, core.AdmitAll
		c.Cfg.FGThreshold, c.Cfg.DeadlineRate = 0, 0
		if v == plan.VarModFactor {
			c.Cfg.ModFactor = phiGen
		}

		genVal := generatedValue(c.Cfg, v)
		base, err := solveConfig(c.Cfg)
		if err != nil {
			return fmt.Errorf("check: plan oracle forward solve %s: %w", c.Name, err)
		}
		slo := plan.SLO{QLenFG: base.QLenFG}
		opts := plan.Options{Var: v, Ctx: ctx}

		res, err := plan.Maximize(c.Cfg, slo, opts)
		vs.assert("plan-feasible",
			fmt.Sprintf("plan with the SLO at its own forward solution must succeed, got: %v", err), err == nil)
		if err != nil {
			continue
		}

		// The generated value is feasible by construction, so the search
		// cannot land on its infeasible side (beyond the convergence
		// bracket) — below it for the maximum-seeking variables, above it
		// for the downward φ search.
		if v == plan.VarModFactor {
			vs.assert("plan-covers-feasible",
				fmt.Sprintf("frontier %s = %g must not be above the known-feasible %g",
					v, res.Value, genVal),
				res.Value <= genVal+planSlack)
		} else {
			vs.assert("plan-covers-feasible",
				fmt.Sprintf("frontier %s = %g must not be below the known-feasible %g",
					v, res.Value, genVal),
				res.Value >= feasibleFloor(v, genVal))
		}

		steps := plan.BisectionSteps(v, 0)
		vs.assert("plan-iterations-bounded",
			fmt.Sprintf("search took %d iterations, bisection takes %d", res.Iterations, steps),
			res.Iterations <= steps)

		// Independent re-solve at the frontier: the deterministic forward
		// solver must reproduce the reported metrics and satisfy the SLO.
		front, err := solveConfig(withPlanVar(c.Cfg, v, res.Value))
		if err != nil {
			return fmt.Errorf("check: plan oracle frontier solve %s: %w", vs.caseName, err)
		}
		vs.add("plan-frontier-metrics", "re-solving the frontier must reproduce the reported QLenFG",
			front.QLenFG, res.Metrics.QLenFG, invariantTol)
		vs.assert("plan-slo-holds",
			fmt.Sprintf("SLO (QLenFG <= %g) must hold at the frontier %s = %g (got QLenFG %g)",
				slo.QLenFG, v, res.Value, front.QLenFG),
			slo.Holds(front))

		// The bracket is the nearest value the search proved infeasible —
		// above the frontier for the maximum searches, below it for φ; an
		// at-cap result proved nothing infeasible and must carry no bracket.
		if res.AtCap {
			vs.add("plan-bracket-atcap", "an at-cap result must carry no bracket", res.Bracket, 0, 0)
		} else if v == plan.VarModFactor {
			brk, ok, err := resolveModBracket(c.Cfg, slo, res.Bracket)
			if err != nil {
				return fmt.Errorf("check: plan oracle bracket solve %s: %w", vs.caseName, err)
			}
			vs.assert("plan-bracket-violates",
				fmt.Sprintf("SLO (QLenFG <= %g) must be violated at the bracket %s = %g (got QLenFG %g)",
					slo.QLenFG, v, res.Bracket, brk.QLenFG),
				res.Bracket < res.Value && !ok)
		} else {
			brk, err := solveConfig(withPlanVar(c.Cfg, v, res.Bracket))
			if err != nil {
				return fmt.Errorf("check: plan oracle bracket solve %s: %w", vs.caseName, err)
			}
			vs.assert("plan-bracket-violates",
				fmt.Sprintf("SLO (QLenFG <= %g) must be violated at the bracket %s = %g (got QLenFG %g)",
					slo.QLenFG, v, res.Bracket, brk.QLenFG),
				res.Bracket > res.Value && !slo.Holds(brk))
		}

		// Unreachable SLO: half the queue length at the variable's
		// least-aggressive endpoint (background disabled, or φ = 1 for the
		// downward modulation search) is below its reachable minimum, so the
		// planner must report ErrInfeasible — never clamp to an endpoint and
		// call it a plan.
		zero := c.Cfg
		if v == plan.VarModFactor {
			zero.ModFactor = 1
		} else {
			zero.BGProb = 0
		}
		floor, err := solveConfig(zero)
		if err != nil {
			return fmt.Errorf("check: plan oracle floor solve %s: %w", c.Name, err)
		}
		_, err = plan.Maximize(c.Cfg, plan.SLO{QLenFG: floor.QLenFG / 2}, opts)
		vs.assert("plan-infeasible-typed",
			fmt.Sprintf("an unreachable SLO (QLenFG <= %g, floor %g) must return ErrInfeasible, got: %v",
				floor.QLenFG/2, floor.QLenFG, err),
			err != nil && errors.Is(err, plan.ErrInfeasible))
	}
	return nil
}

// generatedValue reads the decision variable's value out of a generated
// configuration.
func generatedValue(cfg core.Config, v plan.Var) float64 {
	switch v {
	case plan.VarBGBuffer:
		return float64(cfg.BGBuffer)
	case plan.VarIdleRate:
		return cfg.IdleRate
	case plan.VarModFactor:
		return cfg.ModFactor
	default:
		return cfg.BGProb
	}
}

// withPlanVar returns cfg with the decision variable set to val, mirroring
// the planner's own override.
func withPlanVar(cfg core.Config, v plan.Var, val float64) core.Config {
	switch v {
	case plan.VarBGBuffer:
		cfg.BGBuffer = int(val)
	case plan.VarIdleRate:
		cfg.IdleRate = val
	case plan.VarModFactor:
		cfg.ModFactor = val
	default:
		cfg.BGProb = val
	}
	return cfg
}

// resolveModBracket forward-solves the φ bracket, treating a saturated model
// as a (vacuously confirmed) SLO violation: deep modulation can push the
// chain past stability, and the planner counts such candidates infeasible.
func resolveModBracket(cfg core.Config, slo plan.SLO, bracket float64) (core.Metrics, bool, error) {
	m, err := solveConfig(withPlanVar(cfg, plan.VarModFactor, bracket))
	if err != nil {
		if errors.Is(err, qbd.ErrUnstable) {
			return core.Metrics{}, false, nil
		}
		return core.Metrics{}, false, err
	}
	return m, slo.Holds(m), nil
}

// feasibleFloor is the lowest frontier the search may report when genVal is
// known feasible: exact for the integer buffer, one converged bracket below
// for the continuous variables (absolute for p, relative for α).
func feasibleFloor(v plan.Var, genVal float64) float64 {
	switch v {
	case plan.VarBGBuffer:
		return genVal
	case plan.VarIdleRate:
		return genVal * (1 - planSlack)
	default:
		return genVal - planSlack
	}
}
