PY := PYTHONPATH=src python

.PHONY: test lint bench bench-smoke serve-smoke experiments

test:
	$(PY) -m pytest -x -q

lint:
	ruff check .
	python tools/check_process_pools.py
	python tools/check_print.py
	python tools/check_env_knobs.py

bench:
	$(PY) -m repro.cli bench

# Single-repetition bench pass writing to a scratch file: a CI smoke check
# that every benchmark still runs, without touching BENCH_core.json.
bench-smoke:
	$(PY) -m repro.cli bench --repeat 1 --output /tmp/BENCH_smoke.json

# Regression gate against the committed reference numbers.  CI hardware
# differs wildly from the machine that recorded BENCH_core.json, so the
# smoke tolerance is deliberately loose — it catches order-of-magnitude
# regressions and proves the comparison machinery works; tighten locally
# with `repro-experiments bench --compare BENCH_core.json --tolerance 25`.
# Three repetitions so the compared median is a warm run, not process
# cold-start.
bench-compare:
	$(PY) -m repro.cli bench --repeat 3 --output /tmp/BENCH_compare.json \
		--compare BENCH_core.json --tolerance 400 --stage-tolerance-ms 50

# Start an evaluation server, answer one request through ServiceClient,
# verify the warm repeat hits the result cache, assert a clean shutdown.
serve-smoke:
	$(PY) -m repro.service.smoke

experiments:
	$(PY) -m repro.cli run all
