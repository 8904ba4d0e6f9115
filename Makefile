# One-keystroke entry points for the tier-1 verify, the paper
# benchmarks, and a dependency-free lint floor. Everything runs from
# the repo root with src/ on the path — no install required.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))
# bench-smoke writes fresh timings to BENCH_TIMINGS (gitignored);
# bench-check gates them against the committed BENCH_BASELINE.  The
# default deliberately differs from the baseline path so a casual
# `make bench-smoke` can never clobber the committed baseline —
# refresh it explicitly with `make bench-smoke BENCH_TIMINGS=bench-smoke-timings.json`.
BENCH_TIMINGS ?= bench-smoke-current.json
BENCH_BASELINE ?= bench-smoke-timings.json
SERVE_SMOKE_STORE ?= .serve-smoke

.PHONY: test test-determinism test-chaos bench bench-batch bench-force \
        bench-interp bench-index bench-cluster bench-smoke bench-check \
        bench-verify serve-smoke gateway-smoke profile lint ci all help

help:
	@echo "make test        - tier-1 verify: full pytest suite (-x -q)"
	@echo "make test-determinism - differential suite: thread/process replay backends bit-identical, collection codec round trips, pinned collection bytes"
	@echo "make test-chaos  - seeded fault schedules vs gateway + worker fleet: exactly-once, byte-identical artifacts"
	@echo "make bench       - regenerate every paper table/figure (pytest-benchmark)"
	@echo "make bench-batch - batch-service throughput: serial vs parallel, cold vs warm cache"
	@echo "make bench-force - force-execution exploration: serial vs parallel, fifo vs rarity-first"
	@echo "make bench-interp- interpreter fast path: steps/sec, cold/warm/invalidation-storm, +/- collector"
	@echo "make bench-index - corpus index: cold vs warm cross-app dedup on a ~80%-shared corpus"
	@echo "make bench-cluster - LSH nearest vs linear scan (>=10x @ recall >=0.95) + reveal-and-label throughput"
	@echo "make bench-smoke - every benchmark once in quick mode (--benchmark-disable); timing JSON to $(BENCH_TIMINGS)"
	@echo "make bench-check - gate $(BENCH_TIMINGS) against the committed $(BENCH_BASELINE) (>25% total regression fails)"
	@echo "make bench-verify - perfbench output checks: force-explore DEX/coverage vs expected.json (thread, process), seed-1 thread/process agreement"
	@echo "make serve-smoke - boot the reveal server, submit two jobs, assert clean shutdown"
	@echo "make gateway-smoke - gateway + 2 fleet workers: HTTP submit, fetch artifact, diff vs in-process"
	@echo "make profile     - cProfile one reveal, print top-20 cumulative (tools/profile_reveal.py)"
	@echo "make lint        - byte-compile everything (syntax floor; uses pyflakes when present)"
	@echo "make ci          - exactly what the CI workflow runs: lint + test + test-determinism + test-chaos + bench-smoke + bench-check + bench-verify + serve-smoke + gateway-smoke"

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

# The differential determinism suite on its own: every replay backend
# (thread / process, 1..8 workers) must produce bit-identical
# exploration, collection and archives, the collection files must
# round-trip byte for byte through their one codec and match their
# pinned digests, and a replay must never ship a tree the engine
# already holds.  Part of `make test` too; this target exists so CI
# (and bisects) can run the contract in isolation with verbose
# per-case output.
test-determinism:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/core/test_determinism.py \
		tests/core/test_replay_spec.py tests/runtime/test_predecode_warm.py \
		tests/core/test_collection_codec.py tests/core/test_collection_pins.py -q

# The chaos suite on its own: deterministic seeded fault schedules
# (store I/O, network, worker kills) against a live gateway and a
# two-worker fleet; every schedule must complete every job exactly
# once with byte-identical artifacts.  Failing runs print the full
# schedule, seed included, so they can be replayed.  Part of
# `make test` too; this target exists for CI and for replaying one
# schedule in isolation.
test-chaos:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/service/test_chaos.py -q

# bench_*.py does not match pytest's default collection pattern, so the
# bench targets widen it explicitly.
bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/ -o python_files='bench_*.py' --benchmark-only -s

bench-batch:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_batch_throughput.py --benchmark-only -s

bench-force:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_force_execution.py -o python_files='bench_*.py' --benchmark-only -s

bench-interp:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_interpreter_dispatch.py -o python_files='bench_*.py' --benchmark-only -s

bench-index:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_corpus_index.py -o python_files='bench_*.py' --benchmark-only -s

bench-cluster:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_cluster.py -o python_files='bench_*.py' --benchmark-only -s

# Quick mode: every benchmark file collects and executes once, untimed,
# so a broken benchmark breaks the build; per-test timings land in
# $(BENCH_TIMINGS) (written by benchmarks/conftest.py).
bench-smoke:
	$(PYTHONPATH_SRC) BENCH_TIMINGS_JSON=$(BENCH_TIMINGS) DEXLEGO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ -o python_files='bench_*.py' --benchmark-disable -q

# Perf gate: fail when the fresh bench-smoke timing JSON (written by
# `make bench-smoke` to $(BENCH_TIMINGS)) regressed the committed
# baseline's total duration by more than 25%.
bench-check:
	$(PYTHON) tools/check_bench_regression.py $(BENCH_BASELINE) $(BENCH_TIMINGS)

# The reveal benchmark's output checks, timing aside (one short unit
# each): force-explore's revealed DEX SHA-256, paths_executed and
# fully_covered_sites against perfbench/expected.json on the thread and
# the process backend, and at seed 1 the thread/process agreement.
# perfbench/run.py leaves an empty .bench_work/ behind; rmdir removes
# it only when nothing else is using it.
bench-verify:
	@status=0; \
	$(PYTHON) perfbench/run.py --workload force-explore --seed 0 --seconds 1 --trace 0 || status=1; \
	$(PYTHON) perfbench/run.py --workload force-explore-proc --seed 0 --seconds 1 --trace 0 || status=1; \
	$(PYTHON) perfbench/run.py --workload force-explore --seed 1 --seconds 1 --trace 0 || status=1; \
	rmdir .bench_work 2>/dev/null || true; \
	exit $$status

# Profile a single reveal (top-20 cumulative by default) so perf work
# starts from data; see tools/profile_reveal.py --help for knobs.
profile:
	$(PYTHONPATH_SRC) $(PYTHON) tools/profile_reveal.py

# End-to-end server smoke: journal two jobs into a fresh store, boot a
# server against it, drain, and assert both jobs reached `done` with a
# clean shutdown.  Mirrors the CI bench-smoke job's serve step.
serve-smoke:
	rm -rf $(SERVE_SMOKE_STORE)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service submit --store $(SERVE_SMOKE_STORE) --corpus fdroid --limit 2
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service serve --store $(SERVE_SMOKE_STORE) --workers 2
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service status --store $(SERVE_SMOKE_STORE) --json | \
		$(PYTHON) -c "import json,sys; payload = json.load(sys.stdin); \
		assert payload['counts'] == {'done': 2}, payload['counts']; \
		print('serve-smoke: 2 job(s) done, clean shutdown')"
	rm -rf $(SERVE_SMOKE_STORE)

# End-to-end fleet smoke: boot the HTTP gateway on an ephemeral port,
# race two workers over its store, submit a two-app corpus over real
# HTTP, and assert every revealed APK (and its fetched artifact) is
# byte-identical to the in-process reveal of the same APK.
gateway-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) tools/gateway_smoke.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	@if $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples tools; \
	else \
		echo "pyflakes not installed; compileall-only lint passed"; \
	fi

# Mirrors .github/workflows/ci.yml: the test job runs lint + test +
# test-determinism + test-chaos, the bench-smoke job runs bench-smoke
# + bench-check + bench-verify + serve-smoke + gateway-smoke.
ci: lint test test-determinism test-chaos bench-smoke bench-check bench-verify serve-smoke gateway-smoke

all: lint test
