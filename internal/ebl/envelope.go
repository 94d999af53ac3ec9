package ebl

import "vanetsim/internal/sim"

// Braking kinematics for the feasibility envelope. The paper's §III.E
// notes that whether the EBL warning suffices "may or may not leave the
// vehicle with a sufficient stopping distance, depending on a number of
// other parameters, including the condition of the brakes, the condition
// of the tires, the condition of the road, and the reaction time of the
// driver". BrakingModel makes those parameters explicit so the analysis
// can be swept instead of hand-waved.
type BrakingModel struct {
	// LeadDecel and FollowerDecel are braking decelerations in m/s².
	// Worn brakes / wet road lower the follower's value.
	LeadDecel, FollowerDecel float64
	// Reaction is the driver's (or automation's) delay between the brake
	// indication arriving and brake application.
	Reaction sim.Time
	// Margin is the bumper-to-bumper distance that must remain, in
	// metres (car length plus safety slack).
	Margin float64
}

// DefaultBrakingModel returns dry-road hard braking with a 0.7 s human
// reaction and a 5 m margin.
func DefaultBrakingModel() BrakingModel {
	return BrakingModel{LeadDecel: 7, FollowerDecel: 7, Reaction: 0.7, Margin: 5}
}

// blindTime is the total time the follower keeps cruising after the lead
// brakes: radio indication delay plus driver reaction.
func (m BrakingModel) blindTime(indication sim.Time) float64 {
	return float64(indication + m.Reaction)
}

// decelGap returns k = 1/(2·a_f) − 1/(2·a_l): the quadratic coefficient
// of the extra distance the follower needs because it may brake more
// weakly than the lead.
func (m BrakingModel) decelGap() float64 {
	return 1/(2*m.FollowerDecel) - 1/(2*m.LeadDecel)
}

// MinSafeGap returns the minimum initial following distance, in metres,
// that avoids a collision at the given speed when the brake indication
// takes indication seconds to arrive:
//
//	gap ≥ v·(indication + reaction) + v²·(1/2a_f − 1/2a_l) + margin
//
// (the classic worst-case leader-braking bound).
func (m BrakingModel) MinSafeGap(speedMS float64, indication sim.Time) float64 {
	return speedMS*m.blindTime(indication) + speedMS*speedMS*m.decelGap() + m.Margin
}

// EnvelopeRow is one speed's verdict for the two MACs' indication delays.
type EnvelopeRow struct {
	SpeedMS     float64
	MinGapTDMA  float64
	MinGap80211 float64
	// SafeAt25TDMA / SafeAt2580211 report whether the paper's 25 m
	// separation suffices at this speed.
	SafeAt25TDMA  bool
	SafeAt2580211 bool
}

// FeasibilityEnvelope sweeps speeds and reports the minimum safe gap per
// MAC, given each MAC's measured initial-packet indication delay — the
// quantitative version of the paper's "may or may not leave the vehicle
// with a sufficient stopping distance".
func FeasibilityEnvelope(model BrakingModel, delayTDMA, delay80211 sim.Time, speedsMS []float64) []EnvelopeRow {
	rows := make([]EnvelopeRow, 0, len(speedsMS))
	for _, v := range speedsMS {
		gT := model.MinSafeGap(v, delayTDMA)
		gD := model.MinSafeGap(v, delay80211)
		rows = append(rows, EnvelopeRow{
			SpeedMS:       v,
			MinGapTDMA:    gT,
			MinGap80211:   gD,
			SafeAt25TDMA:  gT <= 25,
			SafeAt2580211: gD <= 25,
		})
	}
	return rows
}
