#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays under bench/: the Go build cache in .build/, WAL
# directories and span dumps in .scratch/.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$dir/.build"
export GOCACHE="$dir/.build/gocache" GOTOOLCHAIN=local
(cd "$dir" && go build -o .build/nfvbench .) >&2
exec "$dir/.build/nfvbench" -scratch "$dir/.scratch" "$@"
