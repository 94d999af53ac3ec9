package ebl

import "vanetsim/internal/sim"

// MPHToMS converts miles per hour to metres per second (the paper uses
// "50 mph (22.4 m/s)").
func MPHToMS(mph float64) float64 { return mph * 0.44704 }

// StoppingAnalysis is the paper's §III.E feasibility assessment: given the
// one-way delay of the *initial* brake-status packet — the first
// indication to a trailing vehicle that the lead is braking — how much of
// the inter-vehicle separation is consumed before the driver even knows?
// BrakingModel.MinSafeGap is the realistic-braking counterpart.
type StoppingAnalysis struct {
	// Inputs.
	InitialDelay sim.Time // one-way delay of the first packet
	Speed        float64  // m/s
	Separation   float64  // m between vehicles

	// Results.
	DistanceBeforeNotice float64 // m travelled during InitialDelay
	FractionOfSeparation float64 // DistanceBeforeNotice / Separation
}

// Analyze computes the distance travelled before notice for the given
// inputs.
func Analyze(initialDelay sim.Time, speedMS, separationM float64) StoppingAnalysis {
	a := StoppingAnalysis{
		InitialDelay:         initialDelay,
		Speed:                speedMS,
		Separation:           separationM,
		DistanceBeforeNotice: speedMS * float64(initialDelay),
	}
	if separationM > 0 {
		a.FractionOfSeparation = a.DistanceBeforeNotice / separationM
	}
	return a
}

// PaperAnalysis reproduces the paper's arithmetic exactly as published: no
// braking model or reaction time, just distance travelled during the
// initial packet's flight as a fraction of the 25 m separation at 22.4 m/s
// (50 mph).
func PaperAnalysis(initialDelay sim.Time) StoppingAnalysis {
	const (
		speed      = 22.4 // m/s, 50 mph
		separation = 25.0 // m
	)
	return Analyze(initialDelay, speed, separation)
}
