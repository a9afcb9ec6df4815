package datagen

import (
	"fmt"

	"autofeat/internal/frame"
)

// FlatTable returns the unpartitioned dataset as one wide table (id, all
// features, target) — the single-table view the Section V metric study
// runs on. Feature names are globally unique by construction, so no
// prefixing is needed.
func (d *Dataset) FlatTable() (*frame.Frame, error) {
	flat := frame.New(d.Spec.Name + "_flat")

	// Base first (keeps id and target, skips FK columns).
	for _, c := range d.Base.Columns() {
		if isKeyLike(c.Name()) {
			continue
		}
		if err := flat.AddColumn(c); err != nil {
			return nil, err
		}
	}
	// Every joinable table's features, re-expanded to full entity
	// alignment: rows the table does not cover become nulls, which
	// mirrors what a perfect join would produce.
	for _, t := range d.Tables {
		if t.Name() == d.Base.Name() {
			continue
		}
		keyCol := tableKeyColumn(t)
		if keyCol == nil {
			return nil, fmt.Errorf("datagen: table %q has no key column", t.Name())
		}
		n := d.Base.NumRows()
		idx := make([]int, n)
		for i := range idx {
			idx[i] = -1
		}
		for r := 0; r < keyCol.Len(); r++ {
			entity := int(keyCol.Int(r)) % keyOffset
			if entity >= 0 && entity < n {
				idx[entity] = r
			}
		}
		expanded := t.Take(idx)
		for _, c := range expanded.Columns() {
			if c == expanded.Column(keyCol.Name()) {
				continue // keys are not features
			}
			if isKeyLike(c.Name()) {
				continue // FK columns placed in this table
			}
			// Bait names repeat across tables; disambiguate on collision.
			name := c.Name()
			for i := 2; flat.HasColumn(name); i++ {
				name = fmt.Sprintf("%s_%d", c.Name(), i)
			}
			if err := flat.AddColumn(c.WithName(name)); err != nil {
				return nil, err
			}
		}
	}
	return flat, nil
}

// tableKeyColumn finds the table's own key column ("key_NN", always first).
func tableKeyColumn(t *frame.Frame) *frame.Column {
	for _, c := range t.Columns() {
		if len(c.Name()) >= 4 && c.Name()[:4] == "key_" {
			return c
		}
	}
	return nil
}

func isKeyLike(name string) bool {
	return len(name) >= 3 && (name[:3] == "key" || name[:3] == "fk_")
}
