// Metrics scraping: after a run the fleet pulls each play node's
// /metrics?format=json snapshot and turns the act-latency histogram into
// the per-node p50/p95/p99 table vgbl-loadtest prints. Against a cluster
// gateway the node list comes from /play/stats; against a single manager
// the play URL itself is the only scrape target.
package fleet

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/playsvc"
)

// NodeLatency is one node's scraped act-latency summary.
type NodeLatency struct {
	Node string
	URL  string
	Acts int64 // observations in the act histogram
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Err  error // scrape failure; the row is otherwise zero
}

// actMetric is the histogram family the table is built from.
const actMetric = "vgbl_playsvc_act_seconds"

// ScrapeActLatencies discovers the play nodes behind playURL and scrapes
// each one's act-latency histogram. A gateway lists its backends in
// /play/stats; a single manager reports no nodes and is scraped directly.
// Scrape failures land in the row's Err instead of aborting the sweep.
// httpc nil means faultnet.DefaultHTTPClient().
func ScrapeActLatencies(httpc *http.Client, playURL string) []NodeLatency {
	playURL = strings.TrimSuffix(playURL, "/")
	type target struct{ node, url string }
	targets := []target{{node: "play", url: playURL}}
	var gw playsvc.GatewayStats
	if err := faultnet.GetJSON(httpc, playURL+playsvc.StatsPath, &gw); err == nil && len(gw.Nodes) > 0 {
		targets = targets[:0]
		for _, n := range gw.Nodes {
			targets = append(targets, target{node: n.Name, url: strings.TrimSuffix(n.URL, "/")})
		}
	}
	rows := make([]NodeLatency, 0, len(targets))
	for _, t := range targets {
		row := NodeLatency{Node: t.node, URL: t.url}
		var snap obs.RegistrySnapshot
		if err := faultnet.GetJSON(httpc, t.url+"/metrics?format=json", &snap); err != nil {
			row.Err = err
		} else if h := snap.Hist(actMetric); h == nil {
			row.Err = fmt.Errorf("fleet: %s missing from %s/metrics", actMetric, t.url)
		} else {
			row.Acts = h.Count
			row.P50 = time.Duration(h.Quantile(0.50))
			row.P95 = time.Duration(h.Quantile(0.95))
			row.P99 = time.Duration(h.Quantile(0.99))
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatLatencyTable renders scraped rows as the aligned per-node table
// printed at the end of a load-test run.
func FormatLatencyTable(rows []NodeLatency) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s\n", "node", "acts", "act p50", "p95", "p99")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-10s scrape failed: %v\n", r.Node, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %8d %10v %10v %10v\n", r.Node, r.Acts,
			r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	}
	return b.String()
}
