package obsrv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"autofeat/internal/telemetry"
)

// Prometheus text exposition rendering, zero-dependency: the /metrics
// endpoint converts a telemetry.Snapshot into the text format scrapers
// expect (one "# TYPE" header per family, cumulative histogram buckets
// with an le label, _sum and _count series).

// MetricPrefix namespaces every exported series, so the dotted internal
// names ("discovery.paths_explored") become valid Prometheus names
// ("autofeat_discovery_paths_explored").
const MetricPrefix = "autofeat_"

// promName converts an internal dotted metric name into a valid
// Prometheus metric name: the autofeat_ namespace prefix plus the name
// with every character outside [a-zA-Z0-9_:] replaced by '_'.
func promName(name string) string {
	b := []byte(MetricPrefix + name)
	for i := len(MetricPrefix); i < len(b); i++ {
		c := b[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// promFloat formats a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): counters and gauges as single series,
// histograms as cumulative le-bucketed series plus _sum and _count.
// Families are emitted in sorted name order so the output is stable. It
// is WritePrometheusNodes over one node with no node label.
func WritePrometheus(w io.Writer, s *telemetry.Snapshot) error {
	return WritePrometheusNodes(w, []NodeSnapshot{{Snap: s}})
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NodeSnapshot pairs one cluster node's ID with its telemetry snapshot
// for federated rendering: the coordinator collects one per worker
// (plus its own) and WritePrometheusNodes renders them as one
// exposition.
type NodeSnapshot struct {
	Node string
	Snap *telemetry.Snapshot
}

// WritePrometheusNodes renders several nodes' snapshots as one
// Prometheus text exposition, every series labelled with its node of
// origin ({node="worker-a"}). Each metric family appears once (a
// single "# TYPE" header across all nodes), then one series per node
// holding it, in node order as given; histogram buckets carry both
// node and le labels. Families are emitted in sorted name order and
// nil snapshots are skipped, so the output is stable. A node with an
// empty Node renders its series without the node label.
func WritePrometheusNodes(w io.Writer, nodes []NodeSnapshot) error {
	live := make([]NodeSnapshot, 0, len(nodes))
	for _, n := range nodes {
		if n.Snap != nil {
			live = append(live, n)
		}
	}
	counters := map[string]bool{}
	gauges := map[string]bool{}
	hists := map[string]bool{}
	for _, n := range live {
		for name := range n.Snap.Counters {
			counters[name] = true
		}
		for name := range n.Snap.Gauges {
			gauges[name] = true
		}
		for name := range n.Snap.Histograms {
			hists[name] = true
		}
	}
	for _, name := range sortedNames(counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", pn); err != nil {
			return err
		}
		for _, n := range live {
			v, ok := n.Snap.Counters[name]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", pn, labels(n.Node, ""), v); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedNames(gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
			return err
		}
		for _, n := range live {
			v, ok := n.Snap.Gauges[name]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", pn, labels(n.Node, ""), promFloat(v)); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedNames(hists) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		for _, n := range live {
			h, ok := n.Snap.Histograms[name]
			if !ok {
				continue
			}
			// The telemetry histogram stores per-bucket counts; Prometheus
			// buckets are cumulative.
			var cum int64
			for i, bound := range h.Bounds {
				if i < len(h.Counts) {
					cum += h.Counts[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", pn, labels(n.Node, promFloat(bound)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", pn, labels(n.Node, "+Inf"), h.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				pn, labels(n.Node, ""), promFloat(h.Sum), pn, labels(n.Node, ""), h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// labels renders a series' label set: node="..." unless node is empty,
// then le="..." unless le is empty; "" when neither is present.
func labels(node, le string) string {
	var parts []string
	if node != "" {
		parts = append(parts, fmt.Sprintf("node=%q", node))
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("le=%q", le))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
