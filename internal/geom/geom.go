// Package geom provides the small amount of 2-D vector geometry the
// simulator needs: positions on a flat road plane, distances for the radio
// propagation models, and interpolation for vehicle motion.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the 2-D plane, in metres.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by k.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{v.X * k, v.Y * k} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared length of v, avoiding the sqrt when only
// comparisons are needed.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// DistSq returns the squared distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).LenSq() }

// Unit returns the unit vector in the direction of v. The unit vector of
// the zero vector is the zero vector, which lets callers treat "no
// direction" uniformly.
func (v Vec2) Unit() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates from v to w: t=0 gives v, t=1 gives w. Values
// of t outside [0,1] extrapolate.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return v.Add(w.Sub(v).Scale(t))
}

// ApproxEqual reports whether v and w agree to within tol in each
// coordinate.
func (v Vec2) ApproxEqual(w Vec2, tol float64) bool {
	return math.Abs(v.X-w.X) <= tol && math.Abs(v.Y-w.Y) <= tol
}

// Kinematics is a constant-acceleration law: dt seconds after its base
// the point is at Pos + Vel·dt + ½·Acc·dt², moving at Vel + Acc·dt. It is
// the one place the law is evaluated, so every position computed from the
// same base and dt is the same to the bit, whoever computes it.
type Kinematics struct {
	Pos, Vel, Acc Vec2
}

// At returns the position dt seconds after the base.
func (k Kinematics) At(dt float64) Vec2 {
	return k.Pos.Add(k.Vel.Scale(dt)).Add(k.Acc.Scale(0.5 * dt * dt))
}

// VelAt returns the velocity dt seconds after the base.
func (k Kinematics) VelAt(dt float64) Vec2 { return k.Vel.Add(k.Acc.Scale(dt)) }

// String formats the vector as "(x, y)" with centimetre precision.
func (v Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", v.X, v.Y) }
