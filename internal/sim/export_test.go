package sim

// queued returns how many entries the pending queue holds, cancelled ones
// included: the number lazy cancellation lets grow and compaction bounds.
func (s *Scheduler) queued() int {
	n := 0
	for i := range s.q.b {
		n += s.q.b[i].n
	}
	return n
}
