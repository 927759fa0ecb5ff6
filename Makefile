.PHONY: all build test check bench experiments clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: what CI runs. Stray trace files from local --trace /
# BCCLB_TRACE runs, dist sockets from killed --backend procs runs, and
# the arena orbit spill segments (results/cache/arena — content-addressed,
# always rebuildable) are cleaned up so they never end up in commits.
check:
	rm -f *.trace.json *.trace.jsonl *.sock
	rm -f BENCH_current.json BENCH_doctored.json scrape.txt
	rm -rf results/cache/arena telemetry-* e15-*
	dune build && dune runtest

bench:
	dune exec bench/main.exe

experiments:
	dune exec bin/experiments.exe -- all

clean:
	dune clean
