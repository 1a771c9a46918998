package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/fleet"
)

// E10 measures the networked-classroom deployment under load: fleets of
// concurrent simulated learners fetch the classroom package from a live
// netstream server (ETag-revalidated after the first download), play it,
// and report events through the batching telemetry client. Each row checks
// that the ingested course totals exactly equal the sum of the local
// per-session reports — aggregation must stay lossless under concurrency.
func E10(learners int) (string, error) {
	if learners <= 0 {
		learners = 200
	}
	blob, err := classroomPackage()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E10 — learner-fleet load: concurrent sessions vs one ingest service\n")
	fmt.Fprintf(&b, "classroom package (%d KB) over loopback HTTP; guided policy, 12 steps;\n", len(blob)/1024)
	b.WriteString("telemetry batches of 8 events, applied in the ingest request\n\n")
	b.WriteString("  learners | sessions/s | events/s | startup p90 | batch p90 | KB sent | 304s | ingest totals\n")
	b.WriteString("  ---------+------------+----------+-------------+-----------+---------+------+--------------\n")

	for _, n := range []int{learners / 10, learners / 2, learners} {
		if n <= 0 {
			continue
		}
		row, err := e10Row(n)
		if err != nil {
			return "", err
		}
		b.WriteString(row)
	}
	b.WriteString("\nshape check: throughput grows with fleet size until the host saturates;\n")
	b.WriteString("transfer stays ~one package total thanks to 304 revalidation; every row\n")
	b.WriteString("must report exact ingest totals — the aggregation pipeline drops nothing.\n")
	return b.String(), nil
}

func e10Row(learners int) (string, error) {
	s, err := served(deploy.Config{})
	if err != nil {
		return "", err
	}
	defer s.Close()
	sum, err := fleet.Run(classroomFleet(s.URL, learners, false))
	if err != nil {
		return "", err
	}
	if _, err := telemetryExact(s.Deployment, sum); err != nil {
		return "", fmt.Errorf("e10, %d learners: %w", learners, err)
	}
	return fmt.Sprintf("  %8d | %10.1f | %8.0f | %11v | %9v | %7.1f | %4d | exact\n",
		learners, sum.SessionsPerSec, sum.EventsPerSec,
		sum.Startup.P90.Round(time.Microsecond), sum.Flush.P90.Round(time.Microsecond),
		float64(sum.Fetch.BytesFetched)/1024, sum.Fetch.NotModified), nil
}
