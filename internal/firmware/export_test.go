package firmware

// StepsOut returns how many S-COMA step records s has handed out and not
// taken back: zero once the machine is quiescent, negative if a record was
// recycled twice.
func (s *Scoma) StepsOut() int {
	if s.steps == nil {
		return 0
	}
	return s.steps.out
}
