package relational

import (
	"fmt"
	"strings"

	"autofeat/internal/frame"
)

// Hop is one edge of a join path: join the running result's column FromCol
// with table To on To's column ToCol.
type Hop struct {
	// FromCol is the fully-qualified column name ("table.column") in the
	// accumulated join result used as the left join key.
	FromCol string
	// To is the table joined in by this hop.
	To *frame.Frame
	// ToCol is the join column inside To (unqualified).
	ToCol string
}

// String renders the hop as "fromCol -> table.toCol".
func (h Hop) String() string {
	return fmt.Sprintf("%s -> %s.%s", h.FromCol, h.To.Name(), h.ToCol)
}

// Path is a multi-hop transitive join path rooted at a base table.
type Path []Hop

// String renders the path in the paper's arrow notation.
func (p Path) String() string {
	if len(p) == 0 {
		return "(empty path)"
	}
	parts := make([]string, len(p))
	for i, h := range p {
		parts[i] = h.String()
	}
	return strings.Join(parts, " ; ")
}

// Materialize applies the path as a sequence of left joins starting from
// base (whose columns must already be prefixed with its table name). It
// returns the final augmented frame and, per hop, the columns that hop
// added. The intermediate result of each hop is treated as the next base
// table, exactly as Section IV-B describes transitive joins.
func (p Path) Materialize(base *frame.Frame, opt Options) (*frame.Frame, [][]string, error) {
	cur := base
	added := make([][]string, 0, len(p))
	for i, h := range p {
		res, err := LeftJoin(cur, h.To, h.FromCol, h.ToCol, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("relational: hop %d (%s): %w", i, h, err)
		}
		cur = res.Frame
		added = append(added, res.AddedColumns)
	}
	return cur, added, nil
}
