package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/netstream"
	"repro/internal/obs"
)

// E19 measures adaptive multi-quality streaming end to end: one course
// recorded at every rung of the default quality ladder, one manifest
// tree, and a fleet of learners ABR clients per fault profile streaming
// it. By default (nil profiles, learners ≤ 0) three learners run across a
// 10× bandwidth spread (cap-6k … cap-60k) plus the mobile-3g and
// wifi-flaky fault profiles. Two claims are checked:
//
//  1. Playback is rebuffer-free on every profile — the picker trades
//     quality, not stalls, as the link shrinks.
//  2. Bytes served per tier are accounted exactly: the clients'
//     per-tier ledgers must reconcile against the server's
//     netstream_tier_bytes_total counters scraped from /metrics.
//     Profiles that never reset a connection (clean, cap-*, mobile-3g:
//     drops and 503s are injected before the server) must match to the
//     byte; wifi-flaky resets replies in flight, so the server may only
//     over-count (it served bytes the client discarded).
func E19(profiles []string, learners int) (string, error) {
	if profiles == nil {
		profiles = []string{"cap-6k", "cap-12k", "cap-24k", "cap-60k", "mobile-3g", "wifi-flaky"}
	}
	if learners <= 0 {
		learners = 3
	}
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 12,
	})
	rungs, err := studio.RecordLadder(film, studio.Options{GOP: 10, ShotMarkers: true}, studio.DefaultLadder())
	if err != nil {
		return "", err
	}
	videos := make([]gamepack.TierVideo, len(rungs))
	for i, r := range rungs {
		videos[i] = gamepack.TierVideo{Tier: r.Tier, Video: r.Video}
	}
	r0, err := container.Open(videos[0].Video)
	if err != nil {
		return "", err
	}
	p := core.NewProject("Ladder Course")
	for i, ch := range r0.Chapters() {
		id := fmt.Sprintf("s%d", i)
		p.Scenarios = append(p.Scenarios, &core.Scenario{ID: id, Name: ch.Name, Segment: ch.Name})
		if i == 0 {
			p.StartScenario = id
		}
	}
	blob, err := gamepack.BuildLadder(p, videos)
	if err != nil {
		return "", err
	}

	srv := netstream.NewServer()
	if err := srv.AddPackage("course", blob); err != nil {
		return "", err
	}
	reg := obs.NewRegistry("vgbl")
	srv.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	dur := float64(r0.Meta().FrameCount) / float64(r0.Meta().FPS)
	var b strings.Builder
	b.WriteString("E19 — adaptive streaming: one ladder package, a 10× bandwidth spread\n")
	fmt.Fprintf(&b, "%d-segment course, %.1fs of media, quality ladder (rate = payload/duration):\n", len(r0.Chapters()), dur)
	var tiers []string
	for _, tv := range videos {
		tiers = append(tiers, netstream.TierLabel(tv.Tier))
		fmt.Fprintf(&b, "  tier %-4s : %7d bytes, %6.1f KB/s\n",
			netstream.TierLabel(tv.Tier), len(tv.Video), float64(len(tv.Video))/dur/1000)
	}
	b.WriteString("\n  profile    | segments | rebuffers | startup p90 | segments per tier             | tier bytes client=server\n")
	b.WriteString("  -----------+----------+-----------+-------------+-------------------------------+-------------------------\n")

	var failures []string
	e19JSON := map[string]any{}
	for _, name := range profiles {
		profile, ok := faultnet.Lookup(name)
		if !ok {
			return "", fmt.Errorf("e19: no fault profile %q", name)
		}
		// No resets: the server's ledger must equal the clients' to the byte.
		exact := profile.ResetRate == 0
		before, err := scrapeMetrics(ts.URL)
		if err != nil {
			return "", err
		}
		sum, err := fleet.RunStreamers(fleet.StreamConfig{
			ServerURL:    ts.URL,
			Package:      "course",
			Learners:     learners,
			Profile:      name,
			Seed:         7,
			DecodeFrames: true,
		})
		if err != nil {
			return "", fmt.Errorf("profile %s: %w", name, err)
		}
		after, err := scrapeMetrics(ts.URL)
		if err != nil {
			return "", err
		}
		served := map[string]int64{}
		for _, tier := range tiers {
			label := obs.L("tier", tier)
			if d := after.Value(tierBytesFamily, label) - before.Value(tierBytesFamily, label); d != 0 {
				served[tier] = d
			}
		}
		reconcile := "exact"
		for _, tier := range tierOrder(sum.TierBytes, served) {
			c, s := sum.TierBytes[tier], served[tier]
			if exact && c != s {
				reconcile = "MISMATCH"
				failures = append(failures, fmt.Sprintf("%s tier %s: client %d, server %d", name, tier, c, s))
			}
			if !exact {
				reconcile = "server>=client"
				if s < c {
					reconcile = "MISMATCH"
					failures = append(failures, fmt.Sprintf("%s tier %s: server %d under-counts client %d", name, tier, s, c))
				}
			}
		}
		if sum.Rebuffers != 0 {
			failures = append(failures, fmt.Sprintf("%s: %d rebuffers (%v stalled)", name, sum.Rebuffers, sum.Stalled))
		}
		fmt.Fprintf(&b, "  %-10s | %8d | %9d | %11v | %-29s | %s\n",
			name, sum.Segments, sum.Rebuffers, sum.Startup.P90.Round(1e6),
			tierCounts(sum.TierSegments), reconcile)
		e19JSON[name] = map[string]any{
			"segments":      sum.Segments,
			"rebuffers":     sum.Rebuffers,
			"startup_p90":   sum.Startup.P90.String(),
			"tier_segments": sum.TierSegments,
			"tier_bytes":    sum.TierBytes,
			"reconcile":     reconcile,
		}
	}
	b.WriteString("\nThe spread is 10× (6 → 60 KiB/s): the picker pins the cheapest rung on\n")
	b.WriteString("the tightest link and climbs the ladder as bandwidth allows, with zero\n")
	b.WriteString("rebuffers everywhere; bytes per tier reconcile against /metrics.\n")
	blobJSON, _ := json.Marshal(e19JSON)
	fmt.Fprintf(&b, "\nE19JSON %s\n", blobJSON)
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("e19: %s", strings.Join(failures, "; "))
	}
	return b.String(), nil
}

// tierBytesFamily is the server's per-tier bytes-served ledger on /metrics.
const tierBytesFamily = "vgbl_netstream_tier_bytes_total"

// scrapeMetrics reads the server's /metrics endpoint (JSON form) — the
// per-tier bytes-served counters come from the same surface an operator
// scrapes, not an in-process shortcut.
func scrapeMetrics(base string) (snap obs.RegistrySnapshot, err error) {
	err = faultnet.GetJSON(nil, base+"/metrics?format=json", &snap)
	return snap, err
}

// tierOrder returns the union of tier labels across both ledgers,
// sorted, so a tier present on only one side is still reconciled.
func tierOrder(a, b map[string]int64) []string {
	seen := map[string]bool{}
	for t := range a {
		seen[t] = true
	}
	for t := range b {
		seen[t] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// tierCounts renders a per-tier segment count map compactly, highest
// quality first.
func tierCounts(m map[string]int) string {
	order := []string{"full", "med", "low", "min"}
	parts := make([]string, 0, len(order))
	for _, tier := range order {
		if n, ok := m[tier]; ok {
			parts = append(parts, fmt.Sprintf("%s:%d", tier, n))
		}
	}
	return strings.Join(parts, " ")
}
