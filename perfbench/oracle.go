package main

import (
	"fmt"

	"accelscore/internal/conformance"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// oracle answers every generated statement from conformance.Score, the
// float64 reference traversal, independently of the system under test.
type oracle struct {
	// data holds the table's rows in order: the initial rows, then every
	// row the workload's INSERTs can append.
	data *dataset.Dataset
	// initial is the table's row count before any INSERT.
	initial int
	// maxBatches is how many INSERT batches the stream holds.
	maxBatches int
	// preds holds each model's reference class for a prefix of data's rows.
	preds map[string][]int
}

// newOracle scores the first need[m] rows of data with each model m.
func newOracle(data *dataset.Dataset, initial, maxBatches int, forests map[string]*forest.Forest, need map[string]int) (*oracle, error) {
	o := &oracle{data: data, initial: initial, maxBatches: maxBatches, preds: map[string][]int{}}
	for name, n := range need {
		ref, err := conformance.Score(forests[name], data.Head(n))
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", name, err)
		}
		o.preds[name] = ref.Predictions
	}
	return o, nil
}

// answer is a statement's result in one shape for every front end.
type answer struct {
	// preds are the predicted classes in scan order.
	preds []int
	// ordinals are the scan ordinals behind preds when a filter restricted
	// them (nil = every scanned row, densely).
	ordinals []int
	// counts is a GROUP BY histogram indexed by class.
	counts []int64
	// partial marks a result missing partitions.
	partial bool
}

// countsOf reads a (prediction, count) result table.
func countsOf(t *db.Table) ([]int64, error) {
	if t == nil {
		return nil, fmt.Errorf("aggregate returned no table")
	}
	var counts []int64
	for _, row := range t.Rows() {
		if len(row) != 2 || row[0].I < 0 {
			return nil, fmt.Errorf("malformed aggregate row %v", row)
		}
		for int64(len(counts)) <= row[0].I {
			counts = append(counts, 0)
		}
		counts[row[0].I] += row[1].I
	}
	return counts, nil
}

func fromQuery(op Op, res *pipeline.QueryResult) (answer, error) {
	if op.Kind == opGroup {
		c, err := countsOf(res.Table)
		return answer{counts: c}, err
	}
	return answer{preds: res.Predictions, ordinals: res.ScoredRows}, nil
}

func fromMerged(op Op, m *router.Merged) (answer, error) {
	a := answer{partial: m.Partial}
	if op.Kind == opGroup {
		c, err := countsOf(m.Table)
		a.counts = c
		return a, err
	}
	a.preds, a.ordinals = m.Predictions, m.ScoredRows
	return a, nil
}

// pass reports whether row i survives the op's filter, with the database's
// comparison: the float32 cell widened to float64.
func (o *oracle) pass(op Op, i int) bool {
	if op.Where == nil {
		return true
	}
	return float64(o.data.X[i*o.data.NumFeatures()+op.Where.Feature]) > op.Where.Value
}

// model returns the reference classes for the first n rows of op's model.
func (o *oracle) model(op Op, n int) ([]int, error) {
	p := o.preds[op.Model]
	if len(p) < n {
		return nil, fmt.Errorf("oracle covers %d rows of %s, statement reads %d", len(p), op.Model, n)
	}
	return p[:n], nil
}

// check compares one answer with the oracle.
func (o *oracle) check(op Op, a answer) error {
	if a.partial {
		return fmt.Errorf("partial result: partitions missing")
	}
	if op.Kind == opInsert {
		return nil
	}
	n := o.initial
	if op.Limit > 0 {
		n = min(op.Limit, o.initial)
	}
	if op.Kind == opGroup {
		if op.Limit == 0 {
			// A full-table aggregate sees the table at some committed
			// prefix of the INSERT stream: the initial rows plus k whole
			// batches. Its own total says which.
			var total int64
			for _, c := range a.counts {
				total += c
			}
			if op.Where == nil {
				extra := int(total) - o.initial
				if extra < 0 || extra%insertBatch != 0 || extra/insertBatch > o.maxBatches {
					return fmt.Errorf("aggregate counted %d rows; no committed table state has that many", total)
				}
				n = int(total)
			}
		}
		ref, err := o.model(op, n)
		if err != nil {
			return err
		}
		var want []int64
		for i, c := range ref {
			if !o.pass(op, i) {
				continue
			}
			for len(want) <= c {
				want = append(want, 0)
			}
			want[c]++
		}
		return sameCounts(a.counts, want)
	}
	ref, err := o.model(op, n)
	if err != nil {
		return err
	}
	var want, wantOrd []int
	if op.Where == nil {
		want = ref
	} else {
		for i, c := range ref {
			if o.pass(op, i) {
				want = append(want, c)
				wantOrd = append(wantOrd, i)
			}
		}
	}
	if len(a.preds) != len(want) {
		return fmt.Errorf("got %d predictions, want %d", len(a.preds), len(want))
	}
	if a.ordinals != nil || wantOrd != nil {
		if len(a.ordinals) != len(wantOrd) {
			return fmt.Errorf("got %d scan ordinals, want %d", len(a.ordinals), len(wantOrd))
		}
		for i := range wantOrd {
			if a.ordinals[i] != wantOrd[i] {
				return fmt.Errorf("result %d: scan ordinal %d, want %d", i, a.ordinals[i], wantOrd[i])
			}
		}
	}
	for i := range want {
		if a.preds[i] != want[i] {
			return fmt.Errorf("row %d: class %d, want %d", i, a.preds[i], want[i])
		}
	}
	return nil
}

func sameCounts(got, want []int64) error {
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w int64
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Errorf("class %d: count %d, want %d", i, g, w)
		}
	}
	return nil
}
