package cluster

// The fixed dispatch policy, for the external tests that model it.
const (
	MaxAttempts = maxAttempts
	BudgetRatio = budgetRatio
	BudgetBurst = budgetBurst
)
