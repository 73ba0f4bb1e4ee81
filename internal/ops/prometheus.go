package ops

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/approxiot/approxiot/internal/core"
)

// writeMetrics renders one snapshot in the Prometheus text exposition format
// (version 0.0.4): counters as <ns>_*_total, gauges plain, the end-to-end
// latency distribution as a classic cumulative-bucket histogram. Families
// and labels are emitted in sorted order so the output is deterministic and
// diffable across scrapes.
func writeMetrics(w io.Writer, ns string, snap core.LiveSnapshot, now time.Time) {
	e := expo{w: w, ns: ns}

	// Run counters: the paper's primary measurements plus the pipeline's
	// loss accounting.
	e.counter("produced_total", "Items generated and published by the sources.",
		float64(snap.Produced))
	e.counter("root_processed_total", "Items the root aggregated after sampling.",
		float64(snap.RootProcessed))
	e.counter("decode_errors_total", "Data-plane records whose batch payload failed to decode.",
		float64(snap.DecodeErrors))
	e.counter("late_dropped_total", "Items dropped past the lateness horizon in event-time mode.",
		float64(snap.LateDropped))
	e.counter("subscriber_drops_total", "Window results dropped on full subscriber buffers.",
		float64(snap.SubscriberDrops))
	e.counter("windows_closed_total", "Non-empty windows closed at the root.",
		float64(snap.WindowsClosed))

	// Lifecycle and health-probe gauges.
	e.header("state", "Deployment lifecycle phase as a one-hot gauge.", "gauge")
	for _, st := range []core.SessionState{core.StateIngesting, core.StateDraining, core.StateClosed} {
		v := 0.0
		if snap.State == st {
			v = 1
		}
		e.sample("state", labels{{"state", st.String()}}, v)
	}
	up := 0.0
	if snap.State == core.StateIngesting {
		up = 1
	}
	e.gauge("up", "1 while the deployment accepts pushes, 0 once draining or closed.", up)
	e.gauge("elapsed_seconds", "Run span: first publish to now (to the run's end once closed).",
		snap.Elapsed.Seconds())
	e.gauge("throughput_items_per_second", "Produced items divided by the elapsed span.",
		snap.Throughput)
	e.gauge("ingest_lag_records", "Unconsumed backlog across the leaf topics (pushers ahead of the pipeline).",
		float64(snap.IngestLag))
	if snap.EventTime {
		lag := 0.0
		if !snap.Watermark.IsZero() {
			lag = now.Sub(snap.Watermark).Seconds()
		}
		e.gauge("watermark_lag_seconds", "Merged root watermark's distance behind wall clock (0 while blocked or idle).",
			lag)
	}

	// Adaptive controller gauges, only meaningful under feedback.
	if snap.Adaptive {
		e.gauge("adaptive_fraction", "Feedback controller's current sampling fraction.",
			snap.Fraction)
		e.gauge("adaptive_target", "Feedback controller's relative-error target.",
			snap.Target)
	}

	// Per-query gauges from the most recently closed window: every
	// registered kind's estimate ± bound, sliding composites, and the
	// window's sample size — the "result ± error" line the paper's root
	// writes, as scrapable series.
	if lw := snap.LastWindow; lw != nil {
		e.header("query_estimate", "Latest window's estimate per registered query kind.", "gauge")
		for _, r := range lw.Results {
			e.sample("query_estimate", labels{{"kind", r.Kind.String()}}, r.Estimate.Value)
		}
		e.header("query_bound", "Latest window's confidence-interval half-width per query kind.", "gauge")
		for _, r := range lw.Results {
			e.sample("query_bound", labels{{"kind", r.Kind.String()}}, r.Bound())
		}
		if len(lw.Sliding) > 0 {
			e.header("query_sliding_estimate", "Latest sliding-window estimate (pane composition) per additive query kind.", "gauge")
			for _, s := range lw.Sliding {
				e.sample("query_sliding_estimate", labels{{"kind", s.Kind.String()}}, s.Estimate.Value)
			}
			e.header("query_sliding_bound", "Latest sliding-window confidence-interval half-width per additive query kind.", "gauge")
			for _, s := range lw.Sliding {
				e.sample("query_sliding_bound", labels{{"kind", s.Kind.String()}}, s.Bound())
			}
		}
		e.gauge("window_sample_size", "Items aggregated into the latest window (zeta over all strata).",
			float64(lw.SampleSize))
	}

	// Per-topic bandwidth: produce-side bytes per link, the paper's
	// network-bandwidth measurement.
	e.header("bandwidth_bytes_total", "Bytes produced onto each link, keyed by destination topic.", "counter")
	for _, topic := range sortedKeys(snap.Bandwidth) {
		e.sample("bandwidth_bytes_total", labels{{"topic", topic}}, float64(snap.Bandwidth[topic]))
	}

	// Per-member node telemetry.
	if len(snap.Nodes) > 0 {
		e.header("node_observed_total", "Items each member received.", "counter")
		for _, id := range sortedKeys(snap.Nodes) {
			e.sample("node_observed_total", labels{{"node", id}}, float64(snap.Nodes[id].Observed))
		}
		e.header("node_emitted_total", "Items each member forwarded after sampling.", "counter")
		for _, id := range sortedKeys(snap.Nodes) {
			e.sample("node_emitted_total", labels{{"node", id}}, float64(snap.Nodes[id].Emitted))
		}
		e.header("node_intervals_total", "Window closes at each member.", "counter")
		for _, id := range sortedKeys(snap.Nodes) {
			e.sample("node_intervals_total", labels{{"node", id}}, float64(snap.Nodes[id].Intervals))
		}
		e.header("node_throughput_items_per_second", "Observed items per second at each member over the run.", "gauge")
		for _, id := range sortedKeys(snap.Nodes) {
			e.sample("node_throughput_items_per_second", labels{{"node", id}}, snap.Nodes[id].Throughput)
		}
		e.header("node_wakeups_total", "Pump cycles each member started from a park, by cause: records arrived (data), its deadline passed (deadline), a Sync ran (sync).", "counter")
		for _, id := range sortedKeys(snap.Nodes) {
			w := snap.Nodes[id].Wakeups
			for _, c := range []struct {
				cause string
				n     int64
			}{{"data", w.Data}, {"deadline", w.Deadline}, {"sync", w.Sync}} {
				e.sample("node_wakeups_total", labels{{"node", id}, {"cause", c.cause}}, float64(c.n))
			}
		}
	}

	// End-to-end latency as a classic Prometheus histogram: cumulative
	// buckets in seconds, closed by the mandatory +Inf bucket.
	e.header("latency_seconds", "End-to-end item latency, source publish to root-side processing.", "histogram")
	var total int64
	if snap.Latency != nil {
		for _, b := range snap.Latency.Buckets() {
			e.sample("latency_seconds_bucket", labels{{"le", formatFloat(b.UpperBound.Seconds())}}, float64(b.Count))
			total = b.Count
		}
	}
	e.sample("latency_seconds_bucket", labels{{"le", "+Inf"}}, float64(total))
	var sum time.Duration
	if snap.Latency != nil {
		sum = snap.Latency.Sum()
	}
	e.sample("latency_seconds_sum", nil, sum.Seconds())
	e.sample("latency_seconds_count", nil, float64(total))
}

// expo writes one exposition; it tracks nothing but the destination and the
// metric namespace.
type expo struct {
	w  io.Writer
	ns string
}

type labels [][2]string

func (e *expo) header(name, help, typ string) {
	fmt.Fprintf(e.w, "# HELP %s_%s %s\n", e.ns, name, help)
	fmt.Fprintf(e.w, "# TYPE %s_%s %s\n", e.ns, name, typ)
}

func (e *expo) sample(name string, ls labels, v float64) {
	fmt.Fprintf(e.w, "%s_%s%s %s\n", e.ns, name, ls.String(), formatFloat(v))
}

func (e *expo) counter(name, help string, v float64) {
	e.header(name, help, "counter")
	e.sample(name, nil, v)
}

func (e *expo) gauge(name, help string, v float64) {
	e.header(name, help, "gauge")
	e.sample(name, nil, v)
}

// String renders the label set as {k="v",...}, escaping per the exposition
// format: backslash, double quote, and newline inside label values.
func (ls labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips, no exponent for typical counter
// magnitudes.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
