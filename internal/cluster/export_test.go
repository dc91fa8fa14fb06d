package cluster

// The fixed dispatch policy, for the external tests that model it.
const (
	MaxAttempts = maxAttempts
	BudgetRatio = budgetRatio
	BudgetBurst = budgetBurst
)

// Capacity is the router's per-member part budget.
func (rt *Router) Capacity() int { return rt.cfg.capacity() }
