#!/bin/sh
# zerocov.sh — fail on any function of the server packages (playsvc,
# netstream, faultnet, gamepack, telemetry, blobstore, deploy) and of the
# packages they stand on (runtime, core, tagrec, obs) that a whole-tree
# coverage profile never entered, unless scripts/zerocov.allow
# lists it with a reason. An allowlist entry whose function now runs is
# stale and fails too, so the list only shrinks.
#
#   go test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile=coverage.out ./...
#   scripts/zerocov.sh coverage.out
set -eu

profile=${1:?usage: scripts/zerocov.sh COVERPROFILE}
allow="$(dirname "$0")/zerocov.allow"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "repro/internal/deploy/deploy.go:127:  Names  0.0%" -> "internal/deploy/deploy.go Names"
go tool cover -func="$profile" | awk '
    $NF == "0.0%" && $1 ~ /\/internal\/(playsvc|netstream|faultnet|gamepack|telemetry|blobstore|deploy|runtime|core|tagrec|obs)\/[^\/]*:/ {
        file = $1
        sub(/^[^\/]*\//, "", file)
        sub(/:[0-9]+:$/, "", file)
        print file, $2
    }' | sort -u >"$tmp/zero"
grep -v '^#' "$allow" | awk 'NF { print $1, $2 }' | sort -u >"$tmp/allow"

comm -23 "$tmp/zero" "$tmp/allow" | sed 's/^/zerocov: never runs, test it or delete it: /' >"$tmp/bad"
comm -13 "$tmp/zero" "$tmp/allow" | sed "s|^|zerocov: runs now, drop it from $allow: |" >>"$tmp/bad"
if [ -s "$tmp/bad" ]; then
    cat "$tmp/bad" >&2
    exit 1
fi
echo "zerocov: every function of the gated packages runs but $(wc -l <"$tmp/allow") allowlisted"
