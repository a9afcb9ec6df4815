package main

import "testing"

// TestZeroBudgetKeepsDefault checks that -budget-joins 0, the flag's
// default, keeps DefaultConfig's join budget of 3000 and that a positive
// value replaces it.
func TestZeroBudgetKeepsDefault(t *testing.T) {
	if got := (runOpts{}).config().MaxEvalJoins; got != 3000 {
		t.Fatalf("-budget-joins 0: MaxEvalJoins = %d, want the default 3000", got)
	}
	if got := (runOpts{budgetJoins: 7}).config().MaxEvalJoins; got != 7 {
		t.Fatalf("-budget-joins 7: MaxEvalJoins = %d", got)
	}
}
