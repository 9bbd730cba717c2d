#!/usr/bin/env bash
# ci.sh — the repo's check gate: formatting, go vet, staticcheck
# (required; CM_SKIP_STATICCHECK=1 opts out offline), build, full
# tests, a race-detector pass over the
# crash-proofing layers (pool, matrix runtime, interpreter, server), a
# race-enabled dual-engine differential pass (bytecode VM vs the
# tree-walking oracle), a race pass over the with-loop flat engine
# (vet plans + VM flat execution), the race-enabled fleet chaos suite (cmgate
# routing under shard kill/restart/hang), the race-enabled tenant
# isolation suite (token buckets, noisy-neighbor chaos, key rotation),
# a fuzz smoke over the frontend, the cmvet analyzer, the VM
# differential fuzzer, the consistent-hash ring and the tenant key
# file parser, the vet findings manifest,
# and a one-shot benchmark smoke pass (E1, the compile-service
# cold/warm pair, kernels, the VM engines and the vet facts pass).
# Run locally before pushing; the GitHub Actions workflow runs this
# script and nothing else, so every step lives here once.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ "${CM_SKIP_STATICCHECK:-}" = "1" ]; then
    echo "staticcheck not installed; skipped via CM_SKIP_STATICCHECK=1"
else
    echo "staticcheck is required and not installed." >&2
    echo "install: go install honnef.co/go/tools/cmd/staticcheck@latest" >&2
    echo "or set CM_SKIP_STATICCHECK=1 for environments without network access" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (crash-proofing + overload layers) =="
go test -race ./internal/par ./internal/matrix ./internal/interp ./internal/server ./internal/driver

echo "== go test -race (kernel differential + integration suites) =="
go test -race -run 'Kernel|FoldExec|Recycle|FreeList|SetOnFree' ./internal/matrix ./internal/interp ./internal/rc

echo "== with-loop flat engine (vet plans + VM flat execution, race) =="
go test -race -run 'TestWithPlan|TestWithFlat|TestCompileWith' ./internal/vet ./internal/vm

echo "== chaos suite (flood / drain / disk-cache recovery) =="
go test -race -run 'TestChaos|TestCrash' ./internal/server

echo "== fleet chaos suite (kill / restart / hang / slow shards under flood) =="
go test -race ./internal/fleet

echo "== tenant isolation (registry + buckets + noisy-neighbor chaos) =="
go test -race ./internal/tenant
go test -race -run 'TestChaosNoisyNeighborIsolation|TestChaosTenantKeyRotationLive|TestTenant|TestGateHeaderTrust' ./internal/fleet ./internal/server

echo "== vm differential (bytecode engine vs tree-walking oracle) =="
go test -race -run 'TestVMDifferential|TestVMStep' -count=1 .

echo "== fuzz smoke (frontend + analyzer never panic) =="
go test -run='^$' -fuzz='^FuzzLex$' -fuzztime=10s ./internal/parser
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s ./internal/parser
go test -run='^$' -fuzz='^FuzzVet$' -fuzztime=10s ./internal/vet
go test -run='^$' -fuzz='^FuzzKernelDiff$' -fuzztime=10s ./internal/matrix
go test -run='^$' -fuzz='^FuzzVMDiff$' -fuzztime=10s .
go test -run='^$' -fuzz='^FuzzRing$' -fuzztime=10s ./internal/fleet
go test -run='^$' -fuzz='^FuzzTenantKeyParse$' -fuzztime=10s ./internal/tenant

echo "== vet manifest (examples + testdata findings pinned) =="
go test -run='^TestVetManifest$' .

echo "== bench smoke =="
go test -run='^$' -bench='BenchmarkE1_' -benchtime=1x .
go test -run='^$' -bench='BenchmarkCompileService' -benchtime=1x ./internal/driver
go test -run='^$' -bench='Kernel' -benchtime=1x .
go test -run='^$' -bench='ScalarLoop|Fib|IndexSum' -benchtime=1x .
go test -run='^$' -bench='VetFacts' -benchtime=1x .

echo "OK"
