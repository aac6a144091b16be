// Package workload catalogs the arrival-process parameterizations of the
// paper's Sec. 3.1: 2-state MMPPs standing in for the three measured disk
// traces (E-mail, Software Development, User Accounts servers) plus the
// independent-arrival counterparts of Sec. 5.4 (IPP and Poisson) and a
// low-dependence MMPP variant.
//
// Provenance. The Software Development and User Accounts rows of the paper's
// Fig. 2 parameter table are legible and reproduced digit for digit. The
// E-mail row is corrupt in the available scan, so its MMPP was re-fitted by
// moment matching (arrival.FitMMPP2) to the documented workload shape: 8%
// utilization at the 6 ms mean service time, high variability, and a slowly
// decaying ("High ACF", LRD-like) autocorrelation function. All rates are per
// millisecond.
package workload

import (
	"fmt"
	"strings"

	"bgperf/internal/arrival"
)

// MeanServiceTimeMs is the paper's mean disk service time (Sec. 3.1).
const MeanServiceTimeMs = 6.0

// ServiceRatePerMs is µ, the exponential service rate implied by the 6 ms
// mean service time.
const ServiceRatePerMs = 1.0 / MeanServiceTimeMs

// Paper Fig. 2 MMPP parameters (per-millisecond rates). The E-mail row is a
// re-fit; see the package comment.
const (
	emailV1, emailV2, emailL1, emailL2 = 1.9728237e-07, 3.0317823e-08, 9.9099097e-02, 1.5308224e-04
	softV1, softV2, softL1, softL2     = 0.9e-6, 1.9e-6, 1.0e-4, 3.5e-2
	userV1, userV2, userL1, userL2     = 0.36e-4, 0.13e-5, 0.1e-1, 0.49e-3
)

// Email returns the MMPP standing in for the paper's E-mail server trace:
// the "High ACF" workload (8% utilized at 6 ms service, strong long-range
// dependence).
func Email() (*arrival.MAP, error) {
	return arrival.MMPP2(emailV1, emailV2, emailL1, emailL2)
}

// SoftwareDevelopment returns the paper's Software Development MMPP: the
// "Low ACF" (short-range dependent) workload, ~6-7% utilized.
func SoftwareDevelopment() (*arrival.MAP, error) {
	return arrival.MMPP2(softV1, softV2, softL1, softL2)
}

// UserAccounts returns the paper's User Accounts MMPP: a lightly loaded
// system with a strong ACF structure (the paper notes it behaves
// qualitatively like E-mail).
func UserAccounts() (*arrival.MAP, error) {
	return arrival.MMPP2(userV1, userV2, userL1, userL2)
}

// EmailLowACF returns an MMPP matching the E-mail mean and CV but with a
// much weaker dependence structure — the "Low ACF" curve of the paper's
// Sec. 5.4 comparison.
func EmailLowACF() (*arrival.MAP, error) {
	email, err := Email()
	if err != nil {
		return nil, err
	}
	return arrival.FitMMPP2(arrival.FitSpec{
		Rate:  email.Rate(),
		SCV:   email.SCV(),
		Decay: 0.95,
	})
}

// EmailIPP returns an Interrupted Poisson Process with the E-mail mean and
// CV: equally variable but completely uncorrelated (a renewal process), the
// paper's instrument for separating variability from dependence.
func EmailIPP() (*arrival.MAP, error) {
	email, err := Email()
	if err != nil {
		return nil, err
	}
	return arrival.IPPFromMoments(email.Rate(), email.SCV(), 0.1)
}

// EmailPoisson returns the Poisson process with the E-mail mean rate — the
// fully independent, low-variability baseline.
func EmailPoisson() (*arrival.MAP, error) {
	email, err := Email()
	if err != nil {
		return nil, err
	}
	return arrival.Poisson(email.Rate())
}

// ByName resolves a catalog workload by its case-insensitive name — the
// vocabulary of the bgperf CLI's -workload flag and of the bgperfd request
// field "workload".
func ByName(name string) (*arrival.MAP, error) {
	switch strings.ToLower(name) {
	case "email":
		return Email()
	case "softdev", "software-development":
		return SoftwareDevelopment()
	case "useraccounts", "user-accounts":
		return UserAccounts()
	case "email-lowacf":
		return EmailLowACF()
	case "email-ipp":
		return EmailIPP()
	case "poisson":
		return EmailPoisson()
	default:
		return nil, fmt.Errorf("unknown workload %q (want email | softdev | useraccounts | email-lowacf | email-ipp | poisson)", name)
	}
}

// AtUtilization rescales a workload so its foreground utilization at the
// paper's service rate equals util — the paper's load sweep ("we scale the
// mean of the two MMPPs to obtain different foreground utilizations").
func AtUtilization(m *arrival.MAP, util float64) (*arrival.MAP, error) {
	if util <= 0 || util >= 1 {
		return nil, fmt.Errorf("workload: utilization %g outside (0,1)", util)
	}
	return m.WithRate(util * ServiceRatePerMs)
}

// Named pairs a workload with its catalog name.
type Named struct {
	Name string
	MAP  *arrival.MAP
}

// Traces returns the three trace-derived MMPPs of Fig. 1/2.
func Traces() ([]Named, error) {
	email, err := Email()
	if err != nil {
		return nil, err
	}
	soft, err := SoftwareDevelopment()
	if err != nil {
		return nil, err
	}
	user, err := UserAccounts()
	if err != nil {
		return nil, err
	}
	return []Named{
		{Name: "E-mail", MAP: email},
		{Name: "Software Development", MAP: soft},
		{Name: "User Accounts", MAP: user},
	}, nil
}

// DependenceComparison returns the four arrival processes of the paper's
// Sec. 5.4 study, all sharing the E-mail mean (and CV where applicable):
// high-ACF MMPP, low-ACF MMPP, IPP, and Poisson.
func DependenceComparison() ([]Named, error) {
	email, err := Email()
	if err != nil {
		return nil, err
	}
	low, err := EmailLowACF()
	if err != nil {
		return nil, err
	}
	ipp, err := EmailIPP()
	if err != nil {
		return nil, err
	}
	poisson, err := EmailPoisson()
	if err != nil {
		return nil, err
	}
	return []Named{
		{Name: "High ACF", MAP: email},
		{Name: "Low ACF", MAP: low},
		{Name: "IPP", MAP: ipp},
		{Name: "Expo", MAP: poisson},
	}, nil
}
