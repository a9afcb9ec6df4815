// Package graph implements the Dataset Relation Graph (DRG) of Section IV:
// an undirected, weighted multigraph whose nodes are datasets and whose
// edges are join opportunities. Two nodes may be connected by many edges,
// one per candidate join-column pair — that is what makes the DRG a
// multigraph and distinguishes AutoFeat from the simple joinability graphs
// of ARDA and MAB (Table I).
//
// The package also provides the traversals AutoFeat relies on: BFS level
// order (the traversal the paper argues for in Section IV-A), DFS (kept for
// the ablation bench) and acyclic join-path enumeration.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"autofeat/internal/frame"
)

// Edge is one join opportunity between datasets A and B: A.ColA ⋈ B.ColB.
// Edges are undirected; A/B ordering is storage detail only.
type Edge struct {
	A, B       string  // dataset (node) names
	ColA, ColB string  // join column on each side (unqualified)
	Weight     float64 // similarity score in (0,1]; 1.0 for KFK constraints
	KFK        bool    // true when the edge comes from an integrity constraint
}

// Oriented returns the edge with A == from, flipping sides if needed.
func (e Edge) Oriented(from string) Edge {
	if e.A == from {
		return e
	}
	return Edge{A: e.B, B: e.A, ColA: e.ColB, ColB: e.ColA, Weight: e.Weight, KFK: e.KFK}
}

// Other returns the endpoint that is not the given node.
func (e Edge) Other(node string) string {
	if e.A == node {
		return e.B
	}
	return e.A
}

// String renders the edge in the paper's arrow notation.
func (e Edge) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s (w=%.2f)", e.A, e.ColA, e.B, e.ColB, e.Weight)
}

// Graph is the Dataset Relation Graph. It doubles as the dataset registry:
// each node carries its table, so traversal code can materialise joins
// without a side lookup.
type Graph struct {
	tables map[string]*frame.Frame
	adj    map[string][]Edge // node -> incident edges (each edge stored under both endpoints)
	nEdges int
}

// New creates an empty DRG.
func New() *Graph {
	return &Graph{tables: make(map[string]*frame.Frame), adj: make(map[string][]Edge)}
}

// AddTable registers a dataset as a node. Re-adding a name replaces the
// table but keeps its edges.
func (g *Graph) AddTable(f *frame.Frame) {
	if _, ok := g.tables[f.Name()]; !ok {
		g.adj[f.Name()] = nil
	}
	g.tables[f.Name()] = f
}

// Table returns the dataset registered under name, or nil.
func (g *Graph) Table(name string) *frame.Frame { return g.tables[name] }

// HasNode reports whether a dataset with the given name is registered.
func (g *Graph) HasNode(name string) bool {
	_, ok := g.tables[name]
	return ok
}

// Nodes returns all node names, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.tables))
	for n := range g.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.tables) }

// NumEdges returns the number of distinct edges (each undirected edge
// counted once).
func (g *Graph) NumEdges() int { return g.nEdges }

// AddEdge inserts a join opportunity. Both endpoints must be registered and
// distinct, the named columns must exist in their tables, and the weight
// must be positive.
func (g *Graph) AddEdge(e Edge) error {
	if e.A == e.B {
		return fmt.Errorf("graph: self-loop on %q", e.A)
	}
	if e.Weight <= 0 {
		return fmt.Errorf("graph: non-positive weight %v on %s", e.Weight, e)
	}
	ta, ok := g.tables[e.A]
	if !ok {
		return fmt.Errorf("graph: unknown node %q", e.A)
	}
	tb, ok := g.tables[e.B]
	if !ok {
		return fmt.Errorf("graph: unknown node %q", e.B)
	}
	if !ta.HasColumn(e.ColA) {
		return fmt.Errorf("graph: table %q has no column %q", e.A, e.ColA)
	}
	if !tb.HasColumn(e.ColB) {
		return fmt.Errorf("graph: table %q has no column %q", e.B, e.ColB)
	}
	g.adj[e.A] = append(g.adj[e.A], e)
	g.adj[e.B] = append(g.adj[e.B], e)
	g.nEdges++
	return nil
}

// Clone returns a deep copy of the graph structure: adjacency slices
// are copied, table frames are shared (frames are immutable snapshots).
// The incremental lake-maintenance path patches a clone so memoised
// DRGs handed to in-flight requests are never mutated underneath them.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tables: make(map[string]*frame.Frame, len(g.tables)),
		adj:    make(map[string][]Edge, len(g.adj)),
		nEdges: g.nEdges,
	}
	for n, t := range g.tables {
		c.tables[n] = t
	}
	for n, es := range g.adj {
		c.adj[n] = append([]Edge(nil), es...)
	}
	return c
}

// RemoveTable deletes a node and every edge incident to it. Removing an
// unknown name is a no-op.
func (g *Graph) RemoveTable(name string) {
	if _, ok := g.tables[name]; !ok {
		return
	}
	for _, e := range g.adj[name] {
		other := e.Other(name)
		if other == name {
			continue
		}
		kept := g.adj[other][:0]
		for _, oe := range g.adj[other] {
			if oe.A == name || oe.B == name {
				continue
			}
			kept = append(kept, oe)
		}
		g.adj[other] = kept
	}
	g.nEdges -= len(g.adj[name])
	delete(g.adj, name)
	delete(g.tables, name)
}

// EdgesFrom returns all edges incident to node, oriented so that A == node,
// in deterministic order (by neighbour, then column pair).
func (g *Graph) EdgesFrom(node string) []Edge {
	es := g.adj[node]
	out := make([]Edge, len(es))
	for i, e := range es {
		out[i] = e.Oriented(node)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		if out[i].ColA != out[j].ColA {
			return out[i].ColA < out[j].ColA
		}
		return out[i].ColB < out[j].ColB
	})
	return out
}

// EdgesBetween returns the multiset of edges between a and b, oriented from
// a, in deterministic order.
func (g *Graph) EdgesBetween(a, b string) []Edge {
	var out []Edge
	for _, e := range g.EdgesFrom(a) {
		if e.B == b {
			out = append(out, e)
		}
	}
	return out
}

// Neighbors returns the distinct neighbour names of node, sorted.
func (g *Graph) Neighbors(node string) []string {
	seen := make(map[string]struct{})
	for _, e := range g.adj[node] {
		seen[e.Other(node)] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BFSLevels returns the nodes reachable from start grouped by hop distance:
// level 0 is [start], level 1 its neighbours, and so on. This is the level
// order AutoFeat's traversal follows (Section IV-A).
func (g *Graph) BFSLevels(start string) [][]string {
	if !g.HasNode(start) {
		return nil
	}
	visited := map[string]bool{start: true}
	var levels [][]string
	cur := []string{start}
	for len(cur) > 0 {
		levels = append(levels, cur)
		var next []string
		for _, n := range cur {
			for _, nb := range g.Neighbors(n) {
				if !visited[nb] {
					visited[nb] = true
					next = append(next, nb)
				}
			}
		}
		sort.Strings(next)
		cur = next
	}
	return levels
}

// DFSOrder returns nodes reachable from start in depth-first preorder; used
// by the traversal ablation bench.
func (g *Graph) DFSOrder(start string) []string {
	if !g.HasNode(start) {
		return nil
	}
	visited := make(map[string]bool)
	var out []string
	var visit func(string)
	visit = func(n string) {
		visited[n] = true
		out = append(out, n)
		for _, nb := range g.Neighbors(n) {
			if !visited[nb] {
				visit(nb)
			}
		}
	}
	visit(start)
	return out
}

// DOT renders the graph in Graphviz DOT format for inspection.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("graph DRG {\n")
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	seen := make(map[string]bool)
	for _, n := range g.Nodes() {
		for _, e := range g.EdgesFrom(n) {
			key := edgeKey(e)
			if seen[key] {
				continue
			}
			seen[key] = true
			style := ""
			if e.KFK {
				style = ", style=bold"
			}
			fmt.Fprintf(&b, "  %q -- %q [label=%q, weight=%.2f%s];\n",
				e.A, e.B, e.ColA+"="+e.ColB, e.Weight, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func edgeKey(e Edge) string {
	if e.A > e.B || (e.A == e.B && e.ColA > e.ColB) {
		e = Edge{A: e.B, B: e.A, ColA: e.ColB, ColB: e.ColA}
	}
	return e.A + "\x00" + e.ColA + "\x00" + e.B + "\x00" + e.ColB
}
