package ops

import (
	"io"

	"github.com/approxiot/approxiot/internal/transport"
)

// writeTransportMetrics renders one transport.Counters snapshot as
// Prometheus families, appended after the session metrics on /metrics. The
// counters describe the process's OWN bus connection — bytes framed onto
// and off the wire, request/response round trips (over records moved: the
// link's overhead), reconnect attempts, and failed operations — which is
// what distinguishes a node process starving because its broker link is
// flapping from one starving because upstream tiers are idle.
func writeTransportMetrics(w io.Writer, ns string, c transport.Counters) {
	e := expo{w: w, ns: ns}
	e.counter("transport_bytes_out_total", "Payload bytes this process sent to its bus backend.",
		float64(c.BytesOut))
	e.counter("transport_bytes_in_total", "Payload bytes this process received from its bus backend.",
		float64(c.BytesIn))
	e.counter("transport_round_trips_total", "Request/response exchanges with the bus backend, whether or not they moved a record.",
		float64(c.RoundTrips))
	e.counter("transport_reconnects_total", "Connection re-establishments to the bus backend.",
		float64(c.Reconnects))
	e.counter("transport_send_errors_total", "Send operations that failed at the transport layer.",
		float64(c.SendErrors))
	e.counter("transport_poll_errors_total", "Poll/fetch operations that failed at the transport layer.",
		float64(c.PollErrors))
}
