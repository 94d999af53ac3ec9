//go:build checkall

package packet

import "fmt"

// Recycles reports whether Release returns packets to the pool for reuse.
// In the checkall build it does not: released packets are poisoned and
// quarantined, so a use after release fails loudly instead of reading a
// packet that happens to be still intact.
const Recycles = false

// Release poisons p and quarantines it: the pool never hands it out again,
// so a stale reference keeps seeing the poison. Releasing a packet twice
// panics.
func (f *Factory) Release(p *Packet) {
	if p.poisoned() {
		panic(fmt.Sprintf("packet: %p released twice", p))
	}
	p.poison()
}
