GO ?= go

.PHONY: all build test race bench verify chaos tm figs serve fleet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/harness/... ./internal/sim/... ./internal/cpu/... ./internal/syncrt/... ./internal/metrics/... ./internal/trace/... ./internal/obs/... ./internal/service/... ./internal/store/... ./internal/fleet/...

# bench gates the kernel and layer microbenchmarks of the working tree
# against HEAD, both measured in this session (10 alternating pairs, medians
# within 15%, zero-alloc rows at 0); see cmd/misar-bench. The end-to-end
# benchmark is `bash bench/run.sh`.
bench:
	$(GO) run ./cmd/misar-bench -base HEAD

# verify certifies the protocol models by exhaustive counter-abstraction
# model checking, proves the broken variants are detected (expected exit 1),
# and runs the bridge + consistency + fuzz cross-checks; see DESIGN.md §12.
verify:
	$(GO) run ./cmd/misar-verify -o cert.json
	$(GO) run ./cmd/misar-verify -broken > /dev/null; test $$? -eq 1
	$(GO) test ./internal/verify/ ./internal/fault/
	$(GO) test ./internal/verify/ -run '^$$' -fuzz FuzzReachability -fuzztime 30s

# chaos runs the seeded fault-injection campaign (must pass) plus the
# broken-OMU detection selftest (must be caught); see DESIGN.md §10.
chaos:
	$(GO) run ./cmd/misar-chaos -seeds 200 -out CHAOS.json
	$(GO) run ./cmd/misar-chaos -seeds 30 -broken -quiet -out CHAOS_broken.json

# tm exercises the transactional-memory backend end to end: unit + bridge
# tests under the race detector, the tm-commit certification with its broken
# variants (expected exit 1), the TM chaos campaign plus the skipped-
# validation detection selftest, and the three-way figure; see DESIGN.md §16.
tm:
	$(GO) test -race ./internal/tm/ ./internal/verify/ ./internal/chaos/
	$(GO) run ./cmd/misar-verify -model tm-commit -o /dev/null
	$(GO) run ./cmd/misar-verify -model tm-commit -broken > /dev/null; test $$? -eq 1
	$(GO) run ./cmd/misar-chaos -seeds 100 -tm -quiet -out CHAOS_tm.json
	$(GO) run ./cmd/misar-chaos -seeds 30 -broken-tm -quiet -out CHAOS_tm_broken.json
	$(GO) run ./cmd/misar-fig -fig tm -quick

figs:
	$(GO) run ./cmd/misar-fig -fig all

# serve starts the simulation job server with a persistent result store;
# see DESIGN.md §11 and README "Running as a service".
serve:
	$(GO) run ./cmd/misar-served -addr :8091 -store misar-store

# fleet runs the fault-tolerance suite under the race detector: ring,
# membership, and peer-store units, then the multi-process kill-a-node
# stress and the overload-degradation check; see DESIGN.md §15.
fleet:
	$(GO) test -race -v ./internal/fleet ./internal/service/client
	FLEET_TRACE_OUT=/tmp/failover-trace.json $(GO) test -race -count=1 -v ./internal/fleet -run 'TestFleetKillANodeStress'

clean:
	rm -f CHAOS.json CHAOS_broken.json CHAOS_tm.json CHAOS_tm_broken.json cert.json
