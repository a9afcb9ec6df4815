package telemetry

// Merge folds other into s, producing the cluster-wide rollup the
// coordinator's status surface reports: counters and gauges are summed
// per name, histograms are bucket-merged (element-wise bucket counts,
// summed count/sum, min of mins, max of maxes). Every histogram in the
// codebase shares DefaultBuckets, so merging assumes identical bounds;
// if the bounds ever differ only count/sum/min/max are folded and the
// receiver's buckets are kept. The span_seconds.<span> histograms merge
// like any other, so the merged Phases are cluster-wide; trace assembly
// is a separate, per-trace path (BuildSpanTree over fanned-out
// SpanRecords). Nil receiver or argument is a no-op.
func (s *Snapshot) Merge(other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	for name, v := range other.Gauges {
		s.Gauges[name] += v
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	for name, h := range other.Histograms {
		s.Histograms[name] = mergeHistograms(s.Histograms[name], h)
	}
}

// mergeHistograms folds b into a. An empty a (zero Count and no bounds)
// yields a copy of b, so first-seen names merge cleanly.
func mergeHistograms(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 && len(a.Bounds) == 0 {
		return copyHistogram(b)
	}
	if b.Count == 0 && len(b.Bounds) == 0 {
		return a
	}
	out := copyHistogram(a)
	if boundsEqual(out.Bounds, b.Bounds) {
		for i := range b.Counts {
			if i < len(out.Counts) {
				out.Counts[i] += b.Counts[i]
			}
		}
	}
	if b.Count > 0 {
		if out.Count == 0 || b.Min < out.Min {
			out.Min = b.Min
		}
		if b.Max > out.Max {
			out.Max = b.Max
		}
	}
	out.Count += b.Count
	out.Sum += b.Sum
	if out.Count > 0 {
		out.Mean = out.Sum / float64(out.Count)
	}
	return out
}

func copyHistogram(h HistogramSnapshot) HistogramSnapshot {
	out := h
	out.Bounds = append([]float64(nil), h.Bounds...)
	out.Counts = append([]int64(nil), h.Counts...)
	return out
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
