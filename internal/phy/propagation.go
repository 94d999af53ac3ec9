// Package phy models the wireless physical layer: signal propagation,
// radios, and the shared channel that connects them. The model follows
// ns-2's WirelessPhy/Channel pair, which the paper's simulations ran on:
// received-power thresholds decide carrier sense and receivability, and a
// capture ratio decides whether overlapping frames collide.
package phy

import (
	"math"

	"vanetsim/internal/sim"
)

// SpeedOfLight is the propagation speed used for over-the-air delay, m/s.
const SpeedOfLight = 3e8

// Propagation computes received signal power as a function of transmit
// power and the transmitter–receiver distance.
type Propagation interface {
	// RxPower returns the received power in watts at distance d metres
	// from a transmission of txPower watts.
	RxPower(txPower, d float64) float64
	// Range returns the distance in metres at which received power falls
	// to thresh watts — the radio's effective range for that threshold.
	Range(txPower, thresh float64) float64
}

// FreeSpace is the Friis free-space model: Pr = Pt·Gt·Gr·λ² / ((4πd)²·L).
type FreeSpace struct {
	// WavelengthM is the carrier wavelength λ in metres.
	WavelengthM float64
	// GainTx, GainRx are antenna gains (dimensionless, 1.0 = isotropic).
	GainTx, GainRx float64
	// SystemLoss L >= 1 aggregates hardware losses.
	SystemLoss float64
}

// RxPower implements Propagation. At zero distance the transmit power is
// returned unattenuated.
func (m FreeSpace) RxPower(txPower, d float64) float64 {
	if d == 0 {
		return txPower
	}
	num := txPower * m.GainTx * m.GainRx * m.WavelengthM * m.WavelengthM
	den := 16 * math.Pi * math.Pi * d * d * m.SystemLoss
	return num / den
}

// Range implements Propagation.
func (m FreeSpace) Range(txPower, thresh float64) float64 {
	num := txPower * m.GainTx * m.GainRx * m.WavelengthM * m.WavelengthM
	return math.Sqrt(num / (16 * math.Pi * math.Pi * m.SystemLoss * thresh))
}

// TwoRayGround is ns-2's default outdoor model: free space up to the
// crossover distance dc = 4π·ht·hr/λ, and ground-reflection attenuation
// Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L) beyond it. It fits flat road geometry,
// which is why ad hoc vehicle simulations (and the paper) use it.
type TwoRayGround struct {
	FreeSpace
	// HeightTxM, HeightRxM are antenna heights above ground in metres.
	HeightTxM, HeightRxM float64
}

// Crossover returns the distance at which the two-ray term takes over from
// free space.
func (m TwoRayGround) Crossover() float64 {
	return 4 * math.Pi * m.HeightTxM * m.HeightRxM / m.WavelengthM
}

// RxPower implements Propagation.
func (m TwoRayGround) RxPower(txPower, d float64) float64 {
	if d < m.Crossover() {
		return m.FreeSpace.RxPower(txPower, d)
	}
	num := txPower * m.GainTx * m.GainRx * m.HeightTxM * m.HeightTxM * m.HeightRxM * m.HeightRxM
	return num / (d * d * d * d * m.SystemLoss)
}

// Range implements Propagation.
func (m TwoRayGround) Range(txPower, thresh float64) float64 {
	num := txPower * m.GainTx * m.GainRx * m.HeightTxM * m.HeightTxM * m.HeightRxM * m.HeightRxM
	d := math.Pow(num/(m.SystemLoss*thresh), 0.25)
	if d < m.Crossover() {
		return m.FreeSpace.Range(txPower, thresh)
	}
	return d
}

// Shadowing decorates a base propagation model with log-normal shadowing:
// each received-power computation is scaled by 10^(X/10) where X is a fresh
// zero-mean Gaussian in dB. This is the standard model for the bursty,
// building-induced power swings that intersection measurements show, and it
// is how the fault layer degrades the channel below the deterministic
// two-ray prediction.
//
// Shadowing draws from its own RNG stream, forked from the run seed, so
// enabling it never perturbs any other layer's randomness; and because a
// run is single-threaded, the draw sequence (one per channel-broadcast
// power computation, in radio attach order) is deterministic. Range
// deliberately delegates to the base model: it reports the *median* range,
// which is what slot-timing and topology helpers want.
type Shadowing struct {
	// Base is the deterministic model being decorated.
	Base Propagation
	// SigmaDB is the shadowing standard deviation in dB (typical outdoor
	// values: 4–8 dB).
	SigmaDB float64

	rng     *sim.RNG
	samples uint64
}

var _ Propagation = (*Shadowing)(nil)

// NewShadowing wraps base with log-normal shadowing of the given sigma,
// drawing from rng (which the decorator owns).
func NewShadowing(base Propagation, sigmaDB float64, rng *sim.RNG) *Shadowing {
	if base == nil {
		panic("phy: NewShadowing with nil base model")
	}
	if rng == nil {
		panic("phy: NewShadowing with nil RNG")
	}
	if sigmaDB < 0 || math.IsNaN(sigmaDB) {
		panic("phy: NewShadowing with negative sigma")
	}
	return &Shadowing{Base: base, SigmaDB: sigmaDB, rng: rng}
}

// RxPower implements Propagation: the base model's power scaled by a fresh
// log-normal draw.
func (m *Shadowing) RxPower(txPower, d float64) float64 {
	p := m.Base.RxPower(txPower, d)
	if p <= 0 || m.SigmaDB == 0 {
		return p
	}
	m.samples++
	return p * math.Pow(10, m.rng.Normal(0, m.SigmaDB)/10)
}

// Range implements Propagation by delegating to the base model (the median
// range under zero-mean shadowing).
func (m *Shadowing) Range(txPower, thresh float64) float64 {
	return m.Base.Range(txPower, thresh)
}

// Samples returns how many shadowing draws have been made, for telemetry.
func (m *Shadowing) Samples() uint64 { return m.samples }

// RadioParams are the per-radio RF constants. DefaultRadioParams matches
// ns-2's 914 MHz Lucent WaveLAN card, giving a 250 m receive range and a
// 550 m carrier-sense range under two-ray ground — the configuration the
// paper inherited from ns-2's wireless defaults.
type RadioParams struct {
	// TxPowerW is the transmit power in watts.
	TxPowerW float64
	// RxThreshW: frames arriving above this power are receivable.
	RxThreshW float64
	// CSThreshW: energy above this power marks the medium busy.
	CSThreshW float64
	// CaptureRatio: a frame survives interference if its power exceeds the
	// interferer's by this factor (10 = 10 dB, the ns-2 default).
	CaptureRatio float64
	// SINRMode switches reception from ns-2's pairwise capture test to an
	// aggregate signal-to-interference-plus-noise decision: the locked
	// frame survives only if its power exceeds CaptureRatio times the
	// *sum* of concurrent interference plus NoiseFloorW at every moment
	// of the reception. Pairwise capture can pass frames that several
	// simultaneous weak interferers would in fact destroy; this mode is
	// the ablation that quantifies the difference.
	SINRMode bool
	// NoiseFloorW is the thermal noise power added to interference in
	// SINR mode.
	NoiseFloorW float64
}

// DefaultRadioParams returns the ns-2 WaveLAN constants.
func DefaultRadioParams() RadioParams {
	return RadioParams{
		TxPowerW:     0.28183815,
		RxThreshW:    3.652e-10,
		CSThreshW:    1.559e-11,
		CaptureRatio: 10.0,
		NoiseFloorW:  1e-13,
	}
}

// DefaultPropagation returns ns-2's default outdoor model: two-ray ground
// at 914 MHz with 1.5 m antennas and unity gains.
func DefaultPropagation() TwoRayGround {
	return TwoRayGround{
		FreeSpace: FreeSpace{
			WavelengthM: SpeedOfLight / 914e6,
			GainTx:      1,
			GainRx:      1,
			SystemLoss:  1,
		},
		HeightTxM: 1.5,
		HeightRxM: 1.5,
	}
}
