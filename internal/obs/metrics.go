package obs

import (
	"errors"
	"sort"

	"spottune/internal/stats"
)

// Metrics is a small deterministic metrics registry: named counters and
// QuantileSketch-backed histograms. Everything about it is
// order-independent — counters add, sketches merge bucket-wise — so metrics
// aggregated across streamed cells in scheduling-dependent order equal
// metrics aggregated sequentially, bit for bit (the same contract
// stats.QuantileSketch gives the matrix summary).
type Metrics struct {
	counters map[string]int64
	hists    map[string]*stats.QuantileSketch
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		hists:    map[string]*stats.QuantileSketch{},
	}
}

// Count adds delta to a counter.
func (m *Metrics) Count(name string, delta int64) { m.counters[name] += delta }

// Observe adds one sample to a histogram, creating it at
// stats.DefaultSketchAlpha on first use.
func (m *Metrics) Observe(name string, v float64) {
	h, ok := m.hists[name]
	if !ok {
		h = stats.NewQuantileSketch(stats.DefaultSketchAlpha)
		m.hists[name] = h
	}
	h.Add(v)
}

// Counter returns a counter's value (0 when never counted).
func (m *Metrics) Counter(name string) int64 { return m.counters[name] }

// Histogram returns a histogram by name, or nil.
func (m *Metrics) Histogram(name string) *stats.QuantileSketch { return m.hists[name] }

// CounterNames/HistogramNames list registered names in sorted order — the
// iteration order every exporter and printer uses, so output never depends
// on map ordering.
func (m *Metrics) CounterNames() []string   { return sortedNames(m.counters) }
func (m *Metrics) HistogramNames() []string { return sortedNames(m.hists) }

func sortedNames[V any](mp map[string]V) []string {
	names := make([]string, 0, len(mp))
	for n := range mp {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds other into m: counters add and histograms merge bucket-wise.
func (m *Metrics) Merge(other *Metrics) error {
	if other == nil {
		return nil
	}
	for n, v := range other.counters {
		m.counters[n] += v
	}
	for _, n := range other.HistogramNames() {
		h, ok := m.hists[n]
		if !ok {
			h = stats.NewQuantileSketch(stats.DefaultSketchAlpha)
			m.hists[n] = h
		}
		if err := h.Merge(other.hists[n]); err != nil {
			return errors.New("obs: merging histogram " + n + ": " + err.Error())
		}
	}
	return nil
}

// CampaignMetrics derives the standard per-campaign metric set from a
// recording. Counters count events by kind (deploys split by market tier),
// histograms sketch the economic distributions (posting dollars, segment
// steps, checkpoint sizes) plus the headline cost/JCT outcomes, so merged
// cell metrics stream straight into battery-level percentiles.
//
// Derivation is a pure fold over the event slice, so two byte-identical
// traces always produce identical metrics.
func CampaignMetrics(r *Recording) *Metrics {
	m := NewMetrics()
	if r == nil {
		return m
	}
	for _, e := range r.Events() {
		switch e.Kind {
		case KindDeploy:
			m.Count("deploys", 1)
			if e.Label == "on-demand" {
				m.Count("deploys.on_demand", 1)
			} else {
				m.Count("deploys.spot", 1)
			}
		case KindNotice:
			m.Count("notices", 1)
			if e.B > 0 {
				m.Count("lost_steps", int64(e.B))
				m.Observe("notice_lost_steps", e.B)
			}
		case KindBlackoutRetry:
			m.Count("blackout_retries", 1)
		case KindMigration:
			m.Count("migrations", 1)
		case KindBackoff:
			m.Count("backoffs", 1)
			m.Observe("backoff_secs", e.A)
		case KindGiveUp:
			m.Count("give_ups", 1)
		case KindDegradation:
			m.Count("degradations", 1)
		case KindDiversify:
			m.Count("diversifications", 1)
		case KindCheckpoint:
			m.Count("checkpoints", 1)
			m.Observe("checkpoint_mb", e.A)
		case KindRestore:
			m.Count("restores", 1)
			m.Observe("restore_secs", e.A)
		case KindSegment:
			m.Count("segments", 1)
			m.Observe("segment_steps", float64(e.N))
		case KindPosting:
			m.Count("postings", 1)
			m.Observe("posting_gross_usd", e.A)
			if e.Label == "revoked" {
				m.Count("revocations", 1)
			}
		case KindRefund:
			m.Count("refunds", 1)
			m.Observe("refund_usd", e.A)
		case KindFallback:
			m.Count("fallbacks", 1)
		case KindRoundOpen:
			m.Count("rounds", 1)
		case KindEliminate:
			m.Count("eliminations", 1)
		case KindCampaignEnd:
			m.Observe("cell_net_cost_usd", e.A)
			m.Observe("cell_jct_hours", e.B)
		}
	}
	return m
}
