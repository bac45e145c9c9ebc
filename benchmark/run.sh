#!/usr/bin/env bash
# The command of BENCHMARK.json. It keeps everything the benchmark and the
# go tool write inside the checkout (build cache, module cache, telemetry
# counters), builds the benchmark and runs it with the arguments given
# (see `go run ./benchmark -h`). The benchmark itself writes only under
# .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local # never fetch another toolchain
go build -o .bench_build/bin/benchmark ./benchmark
exec .bench_build/bin/benchmark "$@"
