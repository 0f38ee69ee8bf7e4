#!/usr/bin/env bash
# Builds keystroke-bench from source into <checkout>/.bench_build and runs
# it with the arguments given. Everything the build and the run write —
# the Go build cache, the binary, the data directories — stays under
# .bench_build, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's own files too: build cache, module cache, and the
# configuration directory it keeps its telemetry counters in.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off
# The build goes to stderr: the last line of stdout must be the result.
(cd "$here" && go build -o "$out/keystroke-bench" .) 1>&2
cd "$root"
exec "$out/keystroke-bench" -data "$out/data" "$@"
