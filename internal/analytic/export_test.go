package analytic

// Bottleneck returns the name of the most loaded resource and its summed
// per-transaction demand in cycles.
func (e *Estimator) Bottleneck() (string, float64) {
	r := e.resources[e.bottleneck]
	return r.name, r.demand
}
