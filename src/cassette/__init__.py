"""Invertible syntax descriptors.

One grammar value is both a parser and a pretty-printer.  Three engines
of increasing power live side by side:

* `tier1`   -- choice-free format descriptors (printf/scanf style)
* `tier2`   -- descriptors with failure and choice, full context-free grammars
* `stacked` -- indexed-monadic descriptors pairing a continuation printer
               with a forward parser: one machine, whose linear flavour
               is its choice flavour without `|`

`lam` writes the flagship lambda-calculus grammar once, for the last two,
and `cli` exposes everything as a command line tool.
"""

from .values import (
    Adt, Bool, Char, ContractViolation, Int, Iso, List, Pair, Prism, Text,
    Unit, Value, adt_prism, cons_prism, const_prism, nil_prism, pair_iso,
    value_from_json, value_to_json,
)

__all__ = [
    "Adt", "Bool", "Char", "ContractViolation", "Int", "Iso", "List", "Pair",
    "Prism", "Text", "Unit", "Value", "adt_prism", "cons_prism", "const_prism",
    "nil_prism", "pair_iso", "value_from_json", "value_to_json",
]
