"""Fresh-interpreter probes of the cassette benchmark.

    python3 bench/setup_probe.py setup SRC       # import + build + first force
    python3 bench/setup_probe.py cli-import SRC  # import of cassette.cli

Each prints one JSON line of seconds.  Nothing but `sys` and `time` is
imported before the clock starts, so the import of the library is timed
as a fresh interpreter pays it.
"""

import sys
from time import perf_counter

start = perf_counter()
mode, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

if mode == "cli-import":
    import cassette.cli  # noqa: F401
    result = {"import_s": perf_counter() - start}
else:
    from cassette import lam
    imported = perf_counter()
    x = lam.var("x")
    lam.term_cassette()
    lam.parse_term("x", "cassette")
    lam.pretty_term(x, "cassette")
    tier2 = perf_counter()
    lam.term_stacked()
    lam.parse_term("x", "stacked")
    lam.pretty_term(x, "stacked")
    done = perf_counter()
    result = {"setup_s": done - start, "tier2_s": tier2 - imported, "stacked_s": done - tier2}

import json  # noqa: E402  (after the clock stops)

print(json.dumps(result))
