//go:build !checkall

package packet

// Recycles reports whether Release returns packets to the pool for reuse.
// The checkall build quarantines them instead (see poison.go), so tests
// that pin the pool's allocation savings hold only when this is true.
const Recycles = true

// Release returns p to the pool once its last owner is done with it. The
// caller asserts that nothing reads p, its TCP header or its payload
// afterwards: all three are reused by a later New or Clone.
func (f *Factory) Release(p *Packet) {
	f.free = append(f.free, p)
}
