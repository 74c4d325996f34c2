package guard

// Violation returns the violation Check fired, if any.
func (m *Monitor) Violation() *Violation { return m.fired }
