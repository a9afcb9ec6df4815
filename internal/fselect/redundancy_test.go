package fselect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// selectMetrics are the metrics the differential test and FuzzSelect
// check: the five of Section V-D, and CLMs whose β is 0 or whose λ is
// negative, the other schedules under which J can only fall.
func selectMetrics() []Redundancy {
	return append(AllRedundancy(),
		CLM{MetricName: "mim", Beta: func(int) float64 { return 0 }, Lambda: func(int) float64 { return 0 }},
		CLM{MetricName: "beta0", Beta: func(int) float64 { return 0 }, Lambda: func(int) float64 { return -0.25 }},
		CLM{MetricName: "negative-lambda", Beta: func(s int) float64 { return 1 / float64(s) }, Lambda: func(s int) float64 { return -0.5 / float64(s) }},
	)
}

// selectInput is one batch for Redundancy.Select.
type selectInput struct {
	cands, sel [][]int
	y          []int
}

// buildSelectInput draws a batch of n rows from next: 1–6 candidates,
// 0–12 selected columns, and a label of 1–3 classes, as class ids or
// mapped to 2·class−1 (so a binary label is −1/+1). A kind byte per
// column picks raw codes with −1 missing, a copy of an earlier column, a
// constant, the label with noise, bits independent of the label, or the
// XOR of the label's class with an earlier column's low bit, which alone
// carries no information on the label but with that column carries all
// of it, so the λ term of JMI and CIFE raises J.
func buildSelectInput(n int, next func() byte) selectInput {
	nc, ns := 1+int(next())%6, int(next())%13
	labelMode := next()
	classes := 1 + int(labelMode)%3
	class := make([]int, n)
	for i := range class {
		class[i] = int(next()) % classes
	}
	var in selectInput
	in.y = slices.Clone(class)
	if labelMode&4 != 0 {
		for i, c := range class {
			in.y[i] = 2*c - 1
		}
	}
	var cols [][]int
	for c := 0; c < ns+nc; c++ {
		kind := next()
		col := make([]int, n)
		arg := int(kind >> 3)
		switch kind % 6 {
		case 0:
			arity := 2 + arg%12
			for i := range col {
				col[i] = int(next())%arity - 1
			}
		case 1:
			if len(cols) > 0 {
				copy(col, cols[arg%len(cols)])
			}
		case 2:
			for i := range col {
				col[i] = arg % 3
			}
		case 3:
			for i := range col {
				col[i] = class[i]
				if b := next(); b%4 == 0 {
					col[i] = int(b>>2)%5 - 1
				}
			}
		case 4:
			for i := range col {
				col[i] = int(next()) & 1
			}
		case 5:
			var src []int
			if len(cols) > 0 {
				src = cols[arg%len(cols)]
			}
			for i := range col {
				bit := int(next()) & 1
				if src != nil {
					bit = src[i] & 1
					if src[i] < 0 {
						col[i] = -1
						continue
					}
				}
				col[i] = bit ^ class[i]&1
			}
		}
		cols = append(cols, col)
	}
	in.sel, in.cands = cols[:ns], cols[ns:]
	return in
}

// refSelectOf runs the reference Select of m.
func refSelectOf(m Redundancy, in selectInput) ([]int, []float64) {
	switch m := m.(type) {
	case CLM:
		return m.refSelect(in.cands, in.sel, in.y)
	case CMIM:
		return m.refSelect(in.cands, in.sel, in.y)
	}
	panic(fmt.Sprintf("no reference for %T", m))
}

// checkSelect holds every metric's Select to its reference on in: the
// same accepted indices and the same score bits. It returns how many
// candidates each metric accepted and rejected against a non-empty
// selected set.
func checkSelect(t *testing.T, in selectInput) (accepted, rejected map[string]int) {
	t.Helper()
	accepted, rejected = map[string]int{}, map[string]int{}
	for _, m := range selectMetrics() {
		wantIdx, wantScores := refSelectOf(m, in)
		gotIdx, gotScores := m.Select(in.cands, in.sel, in.y)
		if !slices.Equal(gotIdx, wantIdx) || !sameBits(gotScores, wantScores) {
			t.Fatalf("%s: Select = %v %v, reference %v %v\n candidates=%v\n selected=%v\n y=%v",
				m.Name(), gotIdx, gotScores, wantIdx, wantScores, in.cands, in.sel, in.y)
		}
		if len(in.sel) > 0 {
			accepted[m.Name()] += len(gotIdx)
			rejected[m.Name()] += len(in.cands) - len(gotIdx)
		}
	}
	return accepted, rejected
}

// TestSelectMatchesReference is the differential test of every
// redundancy metric against the Select that scored each candidate over
// the whole selected set, over seeded batches of up to 300 rows. Every
// metric must both accept and reject candidates against non-empty
// selected sets, or the batches would not tell an early exit that moves
// a score or an accept from one that does not.
func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	next := func() byte { return byte(rng.Intn(256)) }
	accepted, rejected := map[string]int{}, map[string]int{}
	for it := 0; it < 1500; it++ {
		n := rng.Intn(300)
		if it%100 == 0 {
			n = 0
		}
		a, r := checkSelect(t, buildSelectInput(n, next))
		for k, v := range a {
			accepted[k] += v
		}
		for k, v := range r {
			rejected[k] += v
		}
	}
	for _, m := range selectMetrics() {
		if accepted[m.Name()] == 0 || rejected[m.Name()] == 0 {
			t.Errorf("%s accepted %d and rejected %d candidates against a non-empty selected set; want both", m.Name(), accepted[m.Name()], rejected[m.Name()])
		}
	}
}

// FuzzSelect decodes bytes into a batch of at most 64 rows (the first
// byte is the row count, the rest feeds buildSelectInput, zeros past the
// end) and holds every metric to its reference. The committed corpus
// covers both label forms, XOR candidates, copies and constants.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 2, 3, 4, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3, 5, 13, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 65
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		checkSelect(t, buildSelectInput(n, next))
	})
}
